package repro.bench

import repro.SparkSpec
import repro.eval.Tables

/** Paper Table 10: facts-found evaluation. Three run configurations —
  * gold clustering + gold detection, gold clustering + learned detection,
  * full system — each under the three fusion scoring approaches
  * (VOTING / KBT / MATCHING). Three-fold CV, averaged per class.
  */
class Table10FactsBench extends SparkSpec {
  test("Table 10: facts found under three scoring approaches") {
    val tables = BenchWorld.tables
    val t = tables.table10
    t.printed.print()

    // shape assertions: scorings barely differ; GS/GS >= ALL/ALL per class
    tables.classes.foreach { cls =>
      t.runs.foreach { run =>
        val f1s = Tables.scorings.map { case (n, _) => t.f1(cls, run, n) }
        assert(f1s.max - f1s.min < 0.12,
          s"$cls/$run: scoring approaches should be close (paper: ~equal), got $f1s")
      }
      val gs = t.f1(cls, "GS/GS", "VOTING")
      val all = t.f1(cls, "ALL/ALL", "VOTING")
      assert(gs >= all - 0.08, s"$cls: GS/GS ($gs) should be >= ALL/ALL ($all)")
    }
    val avgAll = t.averageAll("VOTING")
    assert(avgAll > 0.3, s"average ALL/ALL facts F1 $avgAll (paper: 0.80)")
  }
}
