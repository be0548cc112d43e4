package repro.bench

import repro.SparkSpec
import repro.eval.{Experiment, Metrics}
import repro.newdetect.{EntitySimilarity, NewDetector}

/** Paper Table 9: new-instances-found evaluation — precision/recall/F1 per
  * class, once with gold-standard (GS) clustering and once with the full
  * aggregated (ALL) clustering; new detection is always the full ALL method.
  * Three-fold cross validation, averaged.
  */
class Table09NewInstancesBench extends SparkSpec {

  test("Table 9: new instances found (GS vs ALL clustering)") {
    val ctx = BenchWorld.ctx
    val perClass = scala.collection.mutable.Map.empty[(String, String), Metrics.PRF]

    BenchWorld.classes.foreach { cls =>
      val allClusters = ctx.goldClustersOf(cls).map(_.entityId).toSet
      val gsEntities = Experiment.goldEntities(ctx, cls, allClusters)
      val selector = ctx.pipe.selector(cls)
      val cands = gsEntities.map(e => e.entityKey -> selector.features(e))

      val gsResults = scala.collection.mutable.ArrayBuffer.empty[Metrics.PRF]
      val allResults = scala.collection.mutable.ArrayBuffer.empty[Metrics.PRF]
      (0 until 3).foreach { fold =>
        val testClusters = BenchWorld.testFoldClusters(cls, fold)
        val models = BenchWorld.foldModels(cls, fold)

        // GS clustering: entities directly from gold clusters
        val fiD = EntitySimilarity.featureIndices(models.detectMetrics)
        val gsDetections = cands.map { case (k, fs) =>
          k -> NewDetector.detect(fs, models.detectAgg, fiD, models.tNew, models.tMatch)
        }.toMap
        gsResults += Metrics.newInstancesFound(gsEntities, gsDetections,
          ctx.rowGoldAll, ctx.gold, testClusters)

        // ALL clustering: the full two-iteration system
        val run = BenchWorld.cvRun(cls, fold)
        allResults += Metrics.newInstancesFound(run.entities, run.detections,
          ctx.rowGoldAll, ctx.gold, testClusters)
      }
      def avg(rs: Seq[Metrics.PRF]) = Metrics.PRF(
        rs.map(_.precision).sum / rs.size, rs.map(_.recall).sum / rs.size,
        rs.map(_.f1).sum / rs.size)
      perClass((cls, "GS")) = avg(gsResults.toSeq)
      perClass((cls, "ALL")) = avg(allResults.toSeq)
    }

    val paper = Map(
      ("GridironFootballPlayer", "GS") -> (0.89, 0.95, 0.91), ("GridironFootballPlayer", "ALL") -> (0.82, 0.95, 0.87),
      ("Song", "GS") -> (0.92, 0.88, 0.90), ("Song", "ALL") -> (0.72, 0.72, 0.72),
      ("Settlement", "GS") -> (0.84, 0.90, 0.87), ("Settlement", "ALL") -> (0.74, 0.87, 0.80))
    val rows = for (cls <- BenchWorld.classes; mode <- Seq("GS", "ALL")) yield {
      val r = perClass((cls, mode))
      val (pp, pr, pf) = paper((cls, mode))
      Seq(cls, mode, BenchFmt.f(r.precision), BenchFmt.f(r.recall), BenchFmt.f(r.f1),
          s"$pp/$pr/$pf")
    }
    val avgAll = {
      val rs = BenchWorld.classes.map(c => perClass((c, "ALL")))
      Seq("Average", "ALL", BenchFmt.f(rs.map(_.precision).sum / 3),
          BenchFmt.f(rs.map(_.recall).sum / 3), BenchFmt.f(rs.map(_.f1).sum / 3),
          "0.76/0.85/0.80")
    }
    BenchFmt.print("Paper Table 9 — new instances found",
      Seq("Class", "Clust.", "P", "R", "F1", "Paper(P/R/F1)"), rows :+ avgAll)

    val avgF1 = BenchWorld.classes.map(c => perClass((c, "ALL")).f1).sum / 3
    assert(avgF1 > 0.3, s"average ALL/ALL F1 $avgF1 (paper: 0.80)")
    BenchWorld.classes.foreach { cls =>
      assert(perClass((cls, "GS")).f1 >= perClass((cls, "ALL")).f1 - 0.1,
        s"$cls: GS clustering should not be clearly worse than ALL (paper shape)")
    }
  }
}
