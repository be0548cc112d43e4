package repro.bench

import repro.SparkSpec

/** Paper Table 8: new detection ablation on entities created from the gold
  * clusters — cumulative metric stacks, three-fold CV, accuracy and
  * per-outcome F1 plus metric importances.
  */
class Table08NewDetectBench extends SparkSpec {
  test("Table 8: new detection ablation (ACC / F1-existing / F1-new / MI)") {
    val tables = BenchWorld.tables
    val t = tables.table8
    tables.table8Printed.print()

    val nStacks = t.layout.metricNames.size
    def accOf(n: Int) = t.scores(n)(0)
    assert(accOf(nStacks) > 0.6, s"full-stack accuracy ${accOf(nStacks)}")
    assert(accOf(nStacks) >= accOf(1) - 0.02,
      s"full stack (${accOf(nStacks)}) must not lose to LABEL-only (${accOf(1)}) " +
      "(paper: 0.89 vs 0.69)")
  }
}
