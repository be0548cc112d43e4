package repro.bench

import repro.SparkSpec
import repro.core.PipelineRunner
import repro.eval.Experiment
import repro.fusion.Voting
import repro.matching.{AttributeMatcher, Keys}

/** Paper Table 6: attribute-to-property matching P/R/F1 by pipeline
  * iteration. Iteration 1 uses only KB-Overlap and KB-Label; iterations 2
  * and 3 add the duplicate-based matchers fed by the previous iteration's
  * clusters and entity-to-instance correspondences. Learning uses 2/3 of
  * the gold tables, evaluation the remaining third (as in the paper).
  */
class Table06AttrMatchBench extends SparkSpec {

  private def evalModel(ctx: Experiment.Ctx, feats: org.apache.spark.sql.DataFrame,
                        learnTables: Set[Long], testTables: Set[Long]): (Double, Double, Double) = {
    val model = AttributeMatcher.learn(spark, feats, ctx.goldAttrMap, learnTables)
    val corr = ctx.pipe.attrCorrespondences(feats, model)
    val predicted = corr.toSeq.map { case (ck, (p, _)) => (Keys.colOf(ck), p) }
    AttributeMatcher.evaluate(predicted, ctx.goldAttrMap, testTables)
  }

  test("Table 6: attribute matching performance by iteration") {
    val ctx = BenchWorld.ctx
    val goldTables = ctx.gold.tableIds.toSeq.sorted
    val testTables = goldTables.zipWithIndex.collect { case (t, i) if i % 3 == 2 => t }.toSet
    val learnTables = goldTables.toSet -- testTables

    // iteration 1: no prior
    val r1 = evalModel(ctx, ctx.pipe.attrFeatures1, learnTables, testTables)

    // iteration 2 prior: per-class iteration-1 runs with all-gold models
    val runs1 = BenchWorld.classes.map { cls =>
      val all = ctx.goldClustersOf(cls).map(_.entityId).toSet
      Experiment.iteration1(ctx, cls, Experiment.learnFold(ctx, cls, all), Voting)
    }
    val feats2 = ctx.pipe.attrFeatures(Some(PipelineRunner.priorOf(runs1)))
    val r2 = evalModel(ctx, feats2, learnTables, testTables)

    // iteration 3 prior: full two-iteration runs (Tables 11/12 reuse these)
    val runs2 = BenchWorld.classes.map(cls => BenchWorld.fullRunAllGold(cls))
    val feats3 = ctx.pipe.attrFeatures(Some(PipelineRunner.priorOf(runs2)))
    val r3 = evalModel(ctx, feats3, learnTables, testTables)

    val paper = Map(1 -> (0.929, 0.608, 0.735), 2 -> (0.924, 0.916, 0.920), 3 -> (0.929, 0.916, 0.922))
    BenchFmt.print("Paper Table 6 — attribute-to-property matching by iteration",
      Seq("Iteration", "P", "R", "F1", "PaperP", "PaperR", "PaperF1"),
      Seq((1, r1), (2, r2), (3, r3)).map { case (i, (p, r, f)) =>
        val (pp, pr, pf) = paper(i)
        Seq(i.toString, BenchFmt.f3(p), BenchFmt.f3(r), BenchFmt.f3(f),
            pp.toString, pr.toString, pf.toString) })

    assert(r1._1 > 0.6, s"iteration-1 precision ${r1._1}")
    assert(r2._3 > r1._3, "iteration 2 must improve F1 over iteration 1 (paper: +0.185)")
    assert(math.abs(r3._3 - r2._3) < 0.1,
      s"iteration 3 must be a marginal change (paper: +0.002); got ${r2._3} -> ${r3._3}")
    assert(Keys.colKey(1, 1) == 1001L) // guard the key packing the eval relies on
  }
}
