package repro.bench

import repro.SparkSpec
import repro.eval.Tables

/** Paper Table 1: instances and facts per selected class. */
class Table01KBProfileBench extends SparkSpec {
  test("Table 1: KB class profile (instances, facts)") {
    val t = BenchWorld.tables.table1
    t.printed.print()
    t.rows.foreach { r =>
      assert(r.instances > 100, s"${r.cls} too few instances")
      assert(r.facts > r.instances, s"${r.cls} must average >1 fact per instance")
    }
    // shape: Song has most instances among the synthetic KB? In the paper
    // Settlement dominates; our scale factors keep classes comparable, so we
    // only assert non-degeneracy per class.
  }
}

/** Paper Table 2: facts and property densities per class. */
class Table02DensityBench extends SparkSpec {
  test("Table 2: KB property densities follow the paper's density profile") {
    val t = BenchWorld.tables.table2
    t.printed.print()
    val byKey = t.rows.map(r => (r.cls, r.property) -> r.density).toMap
    Tables.Table02.paper.foreach { case (k, paper) =>
      val got = byKey(k)
      assert(math.abs(got - paper) < 8.0, s"$k density $got vs paper $paper")
    }
  }
}

/** Paper Table 3: corpus characteristics (rows / columns). */
class Table03CorpusStatsBench extends SparkSpec {
  test("Table 3: corpus row/column statistics") {
    val t = BenchWorld.tables.table3
    t.printed.print()
    val rm = t.rows.median
    assert(rm <= 4, s"median rows $rm should be small (paper: 2)")
    assert(t.rows.avg > rm, "row distribution must be right-skewed like the paper's")
    val ca = t.columns.avg
    assert(ca >= 2 && ca <= 6, s"avg columns $ca (paper: 3.48)")
    assert(t.columns.min >= 2)
  }
}

/** Paper Table 4: tables and value correspondences per class after matching
  * the corpus against the knowledge base.
  */
class Table04CorpusMatchBench extends SparkSpec {
  test("Table 4: matched tables / matched and unmatched values per class") {
    val t = BenchWorld.tables.table4
    t.printed.print()
    t.rows.foreach { r =>
      val (vm, vu) = (r.valuesMatched, r.valuesUnmatched)
      assert(r.tables > 50, s"${r.cls}: too few matched tables")
      // paper ratio is ~5:1; our corpus carries a higher long-tail share by
      // construction, so we assert a substantial matched fraction instead
      assert(vm.toDouble / (vm + vu) > 0.3,
        s"${r.cls}: matched fraction ${vm.toDouble / (vm + vu)} too low")
    }
    val song = t.rows.find(_.cls == "Song").get
    val others = t.rows.filter(_.cls != "Song")
    assert(others.forall(o => song.valuesMatched > o.valuesMatched),
      "Song carries the most values (paper shape)")
  }
}

/** Paper Table 5: gold standard overview. */
class Table05GoldBench extends SparkSpec {
  test("Table 5: gold standard annotation counts") {
    val t = BenchWorld.tables.table5
    t.printed.print()
    t.rows.foreach { r =>
      val Seq(_, _, _, pe, pn, _, _) = Tables.Table05.paper(r.cls)
      assert(r.existing == pe && r.newClusters == pn, s"${r.cls} cluster counts must match the paper exactly")
      assert(r.tables > 10 && r.attributes > 10 && r.rows > r.existing + r.newClusters,
        s"${r.cls} annotation volumes must be non-trivial")
      assert(r.correctPresent <= r.groups, s"${r.cls} correct-present cannot exceed groups")
    }
  }
}
