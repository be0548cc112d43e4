package repro.bench

import repro.SparkSpec

/** Paper Table 9: new-instances-found evaluation — precision/recall/F1 per
  * class, once with gold-standard (GS) clustering and once with the full
  * aggregated (ALL) clustering; new detection is always the full ALL method.
  * Three-fold cross validation, averaged.
  */
class Table09NewInstancesBench extends SparkSpec {
  test("Table 9: new instances found (GS vs ALL clustering)") {
    val tables = BenchWorld.tables
    val t = tables.table9
    t.printed.print()

    val avgF1 = t.averageAll.f1
    assert(avgF1 > 0.3, s"average ALL/ALL F1 $avgF1 (paper: 0.80)")
    tables.classes.foreach { cls =>
      assert(t.of(cls, "GS").f1 >= t.of(cls, "ALL").f1 - 0.1,
        s"$cls: GS clustering should not be clearly worse than ALL (paper shape)")
    }
  }
}
