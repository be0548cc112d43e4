package repro.bench

import repro.SparkSpec
import repro.core.PipelineRunner
import repro.eval.{Experiment, Metrics}
import repro.newdetect.{EntitySimilarity, NewDetector}

/** Paper Table 8: new detection ablation on entities created from the gold
  * clusters — cumulative metric stacks, three-fold CV, accuracy and
  * per-outcome F1 plus metric importances.
  */
class Table08NewDetectBench extends SparkSpec {

  private val stacks: Seq[Seq[String]] =
    (1 to EntitySimilarity.metricNames.size).map(EntitySimilarity.metricNames.take)

  test("Table 8: new detection ablation (ACC / F1-existing / F1-new / MI)") {
    val ctx = BenchWorld.ctx
    val results = scala.collection.mutable.Map.empty[Int, scala.collection.mutable.ArrayBuffer[Metrics.DetectEval]]
    val importances = scala.collection.mutable.ArrayBuffer.empty[Map[String, Double]]

    BenchWorld.classes.foreach { cls =>
      val allClusters = ctx.goldClustersOf(cls).map(_.entityId).toSet
      val selector = ctx.pipe.selector(cls)
      val cands = Experiment.goldEntities(ctx, cls, allClusters)
        .map(e => e.entityKey -> selector.features(e))

      (0 until 3).foreach { fold =>
        val testClusters = BenchWorld.testFoldClusters(cls, fold)
        val learnClusters = allClusters -- testClusters
        val truth = learnClusters.map(gid => gid -> ctx.gold.clusterById(gid).instance).toMap

        stacks.zipWithIndex.foreach { case (stack, si) =>
          val (agg, fi, tn, tm) = PipelineRunner.learnDetect(
            cands.filter(c => learnClusters.contains(c._1)), truth, stack, seed = 11 + fold)
          val testResults = cands.filter(c => testClusters.contains(c._1)).map { case (k, fs) =>
            k -> NewDetector.detect(fs, agg, fi, tn, tm)
          }
          results.getOrElseUpdate(si, scala.collection.mutable.ArrayBuffer.empty) +=
            Metrics.detectionEval(testResults, ctx.gold)
          if (si == stacks.size - 1)
            importances += Experiment.metricImportances(agg,
              stack.map(m => m -> EntitySimilarity.metricIdx(m)._1))
        }
      }
    }

    val paper = Seq(
      ("LABEL", 0.69, 0.66, 0.67, 0.20), ("+ TYPE", 0.79, 0.75, 0.82, 0.26),
      ("+ BOW", 0.85, 0.84, 0.83, 0.17), ("+ ATTRIBUTE", 0.85, 0.86, 0.84, 0.20),
      ("+ IMPLICIT_ATT", 0.88, 0.87, 0.89, 0.11), ("+ POPULARITY", 0.89, 0.88, 0.88, 0.06))
    val avgImp = EntitySimilarity.metricNames.map { m =>
      m -> importances.map(_.getOrElse(m, 0.0)).sum / importances.size }.toMap
    val rows = stacks.indices.map { si =>
      val rs = results(si)
      val acc = rs.map(_.accuracy).sum / rs.size
      val fe = rs.map(_.f1Existing).sum / rs.size
      val fn = rs.map(_.f1New).sum / rs.size
      val (lbl, pa, pfe, pfn, pmi) = paper(si)
      Seq(lbl, BenchFmt.f(acc), BenchFmt.f(fe), BenchFmt.f(fn),
          BenchFmt.f(avgImp(EntitySimilarity.metricNames(si))), s"$pa/$pfe/$pfn/$pmi")
    }
    BenchFmt.print("Paper Table 8 — new detection ablation",
      Seq("Run", "ACC", "F1Existing", "F1New", "MI", "Paper(ACC/F1E/F1N/MI)"), rows)

    def accOf(si: Int) = { val rs = results(si); rs.map(_.accuracy).sum / rs.size }
    assert(accOf(stacks.size - 1) > 0.6, s"full-stack accuracy ${accOf(stacks.size - 1)}")
    assert(accOf(stacks.size - 1) >= accOf(0) - 0.02,
      s"full stack (${accOf(stacks.size - 1)}) must not lose to LABEL-only (${accOf(0)}) " +
      "(paper: 0.89 vs 0.69)")
  }
}
