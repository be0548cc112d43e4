package repro.bench

import repro.SparkSpec
import repro.core.PipelineRunner
import repro.eval.{Experiment, Metrics}
import repro.fusion.{EntityCreation, FusionScoring, KBT, Matching, Voting}
import repro.newdetect.{DetectedExisting, DetectedNew, Detection, EntitySimilarity, NewDetector}

/** Paper Table 10: facts-found evaluation. Three run configurations —
  * gold clustering + gold detection, gold clustering + learned detection,
  * full system — each under the three fusion scoring approaches
  * (VOTING / KBT / MATCHING). Three-fold CV, averaged per class.
  */
class Table10FactsBench extends SparkSpec {
  private val scorings: Seq[(String, FusionScoring)] =
    Seq(("VOTING", Voting), ("KBT", KBT), ("MATCHING", Matching))

  test("Table 10: facts found under three scoring approaches") {
    val ctx = BenchWorld.ctx
    // results: (cls, runLabel, scoring) -> fold F1s
    val acc = scala.collection.mutable.Map.empty[(String, String, String), scala.collection.mutable.ArrayBuffer[Double]]
    def add(k: (String, String, String), v: Double): Unit =
      acc.getOrElseUpdate(k, scala.collection.mutable.ArrayBuffer.empty) += v

    // column scores over the iteration-1 mapping (shared by the GS runs)
    val scores1 = scorings.map { case (name, s) =>
      name -> PipelineRunner.fusionScores(ctx.pipe, ctx.corr1, s)
    }.toMap

    BenchWorld.classes.foreach { cls =>
      val allClusters = ctx.goldClustersOf(cls).map(_.entityId).toSet
      val gsEnts = scorings.map { case (name, s) =>
        name -> Experiment.goldEntities(ctx, cls, allClusters, s, scores1(name))
      }.toMap
      val perfect: Map[Long, Detection] = allClusters.map { gid =>
        gid -> ctx.gold.clusterById(gid).instance.fold[Detection](DetectedNew)(DetectedExisting(_, 1.0))
      }.toMap
      val selector = ctx.pipe.selector(cls)

      (0 until 3).foreach { fold =>
        val testClusters = BenchWorld.testFoldClusters(cls, fold)
        val models = BenchWorld.foldModels(cls, fold)
        val fiD = EntitySimilarity.featureIndices(models.detectMetrics)
        def detectLocal(ents: Seq[repro.fusion.Entity]): Map[Long, Detection] =
          ents.map { e =>
            e.entityKey -> NewDetector.detect(selector.features(e), models.detectAgg, fiD,
                                              models.tNew, models.tMatch)
          }.toMap

        scorings.foreach { case (name, s) =>
          // run 1: GS clustering + GS detection
          add((cls, "GS/GS", name), Metrics.factsFound(gsEnts(name), perfect,
            ctx.rowGoldAll, ctx.gold, testClusters, ctx.schema).f1)
          // run 2: GS clustering + learned detection
          add((cls, "GS/ALL", name), Metrics.factsFound(gsEnts(name), detectLocal(gsEnts(name)),
            ctx.rowGoldAll, ctx.gold, testClusters, ctx.schema).f1)
          // run 3: full system clustering + learned detection
          val run = BenchWorld.cvRun(cls, fold)
          val relevant = run.profiles.groupBy(p => run.clusters.getOrElse(p.rowKey, p.rowKey))
            .filter(_._2.exists(p => ctx.rowGoldAll.contains(p.rowKey)))
          val cs = PipelineRunner.fusionScores(ctx.pipe, run.attrCorr, s)
          val rebuilt = relevant.toSeq.sortBy(_._1).map { case (cid, profs) =>
            EntityCreation.fromRows(cid, profs, ctx.schema, s, cs)
          }
          val detections = if (s == Voting) run.detections else detectLocal(rebuilt)
          add((cls, "ALL/ALL", name), Metrics.factsFound(rebuilt, detections,
            ctx.rowGoldAll, ctx.gold, testClusters, ctx.schema).f1)
        }
      }
    }

    val paper = Map(
      ("GridironFootballPlayer", "GS/GS") -> Seq(0.82, 0.82, 0.82),
      ("GridironFootballPlayer", "GS/ALL") -> Seq(0.81, 0.81, 0.81),
      ("GridironFootballPlayer", "ALL/ALL") -> Seq(0.81, 0.81, 0.81),
      ("Song", "GS/GS") -> Seq(0.80, 0.81, 0.81),
      ("Song", "GS/ALL") -> Seq(0.74, 0.73, 0.74),
      ("Song", "ALL/ALL") -> Seq(0.67, 0.69, 0.68),
      ("Settlement", "GS/GS") -> Seq(0.98, 0.98, 0.98),
      ("Settlement", "GS/ALL") -> Seq(0.93, 0.93, 0.93),
      ("Settlement", "ALL/ALL") -> Seq(0.91, 0.91, 0.91))
    val runLabels = Seq("GS/GS", "GS/ALL", "ALL/ALL")
    val rows = for (cls <- BenchWorld.classes; run <- runLabels) yield {
      val f1s = scorings.map { case (name, _) =>
        val xs = acc((cls, run, name)); xs.sum / xs.size }
      Seq(cls, run) ++ f1s.map(BenchFmt.f) :+ paper((cls, run)).mkString("/")
    }
    val avgRow = {
      val f1s = scorings.map { case (name, _) =>
        val xs = BenchWorld.classes.map { c => val a = acc((c, "ALL/ALL", name)); a.sum / a.size }
        xs.sum / xs.size }
      Seq("Average", "ALL/ALL") ++ f1s.map(BenchFmt.f) :+ "0.80/0.80/0.80"
    }
    BenchFmt.print("Paper Table 10 — facts found",
      Seq("Class", "Clust./Det.", "F1 VOTING", "F1 KBT", "F1 MATCHING", "Paper(V/K/M)"),
      rows :+ avgRow)

    // shape assertions: scorings barely differ; GS/GS >= ALL/ALL per class
    BenchWorld.classes.foreach { cls =>
      runLabels.foreach { run =>
        val f1s = scorings.map { case (n, _) => val xs = acc((cls, run, n)); xs.sum / xs.size }
        assert(f1s.max - f1s.min < 0.12,
          s"$cls/$run: scoring approaches should be close (paper: ~equal), got $f1s")
      }
      val gs = { val xs = acc((cls, "GS/GS", "VOTING")); xs.sum / xs.size }
      val all = { val xs = acc((cls, "ALL/ALL", "VOTING")); xs.sum / xs.size }
      assert(gs >= all - 0.08, s"$cls: GS/GS ($gs) should be >= ALL/ALL ($all)")
    }
    val avgAll = { val xs = BenchWorld.classes.map { c =>
      val a = acc((c, "ALL/ALL", "VOTING")); a.sum / a.size }; xs.sum / 3 }
    assert(avgAll > 0.3, s"average ALL/ALL facts F1 $avgAll (paper: 0.80)")
  }
}
