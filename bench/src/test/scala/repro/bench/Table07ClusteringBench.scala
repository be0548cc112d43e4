package repro.bench

import repro.SparkSpec

/** Paper Table 7: row clustering ablation — cumulative metric stacks, three-
  * fold cross validation, penalized clustering precision / average recall /
  * F1 and metric importances.
  */
class Table07ClusteringBench extends SparkSpec {
  test("Table 7: row clustering ablation (PCP / AR / F1 / MI)") {
    val tables = BenchWorld.tables
    val t = tables.table7
    tables.table7Printed.print()

    val nStacks = t.layout.metricNames.size
    def f1Of(n: Int) = t.scores(n)(2)
    val labelOnly = f1Of(1); val full = f1Of(nStacks)
    assert(full > 0.55, s"full-stack clustering F1 $full")
    assert(full >= labelOnly - 0.02,
      s"aggregating all metrics ($full) must not lose to LABEL-only ($labelOnly)")
    // the paper finds LABEL the most important metric (0.33); learned
    // importances fluctuate at our scale, so assert it stays a major signal
    val avgImp = t.importance
    assert(avgImp("LABEL") >= 0.15,
      s"LABEL importance ${avgImp("LABEL")} must remain a major signal (paper: 0.33)")
    assert(avgImp("LABEL") > avgImp("SAME_TABLE"),
      "LABEL must outweigh SAME_TABLE (paper: 0.33 vs 0.07)")
  }
}
