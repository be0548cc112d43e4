package repro.bench

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.world.Schemas

/** Paper Table 1: instances and facts per selected class. */
class Table01KBProfileBench extends SparkSpec {
  test("Table 1: KB class profile (instances, facts)") {
    val ctx = BenchWorld.ctx
    val rows = ctx.kb.classProfile(Schemas.mainClasses).collect()
      .map(r => (r.getString(0), r.getLong(1), r.getLong(2))).sortBy(_._1)
    val paper = Map("GridironFootballPlayer" -> (20751L, 137319L),
                    "Song" -> (52533L, 315414L), "Settlement" -> (468986L, 1444316L))
    BenchFmt.print("Paper Table 1 — KB profile (paper numbers at full DBpedia scale)",
      Seq("Class", "Instances", "Facts", "PaperInstances", "PaperFacts"),
      rows.map { case (c, i, f) =>
        Seq(c, i.toString, f.toString, paper(c)._1.toString, paper(c)._2.toString) })
    rows.foreach { case (c, i, f) =>
      assert(i > 100, s"$c too few instances")
      assert(f > i, s"$c must average >1 fact per instance")
    }
    // shape: Song has most instances among the synthetic KB? In the paper
    // Settlement dominates; our scale factors keep classes comparable, so we
    // only assert non-degeneracy per class.
  }
}

/** Paper Table 2: facts and property densities per class. */
class Table02DensityBench extends SparkSpec {
  test("Table 2: KB property densities follow the paper's density profile") {
    val ctx = BenchWorld.ctx
    val rows = ctx.kb.densityProfile(Schemas.mainClasses).collect()
      .map(r => (r.getString(0), r.getString(1), r.getLong(2), r.getDouble(3)))
      .sortBy(x => (x._1, -x._4))
    val paperDensity = Map(
      ("GridironFootballPlayer", "birthDate") -> 97.43, ("GridironFootballPlayer", "draftPick") -> 38.19,
      ("Song", "genre") -> 89.54, ("Song", "releaseDate") -> 60.34,
      ("Settlement", "country") -> 92.51, ("Settlement", "elevation") -> 31.26)
    BenchFmt.print("Paper Table 2 — property densities",
      Seq("Class", "Property", "Facts", "Density%", "Paper%"),
      rows.map { case (c, p, f, d) =>
        Seq(c, p, f.toString, BenchFmt.f(d), paperDensity.get((c, p)).map(_.toString).getOrElse("-")) })
    val byKey = rows.map(r => (r._1, r._2) -> r._4).toMap
    paperDensity.foreach { case (k, paper) =>
      val got = byKey(k)
      assert(math.abs(got - paper) < 8.0, s"$k density $got vs paper $paper")
    }
  }
}

/** Paper Table 3: corpus characteristics (rows / columns). */
class Table03CorpusStatsBench extends SparkSpec {
  test("Table 3: corpus row/column statistics") {
    import spark.implicits._
    val ctx = BenchWorld.ctx
    val cells = ctx.corpus.cellsDF(spark)
    val cols = ctx.corpus.columnsDF(spark)
    val rowsPerTable = cells.select($"tableId", $"rowId").distinct()
      .groupBy($"tableId").agg(count(lit(1)) as "n").cache()
    val colsPerTable = cols.groupBy($"tableId").agg(count(lit(1)) as "n").cache()
    def stats(df: org.apache.spark.sql.DataFrame): (Double, Double, Long, Long) = {
      val a = df.agg(avg($"n"), min($"n"), max($"n")).head()
      val med = df.stat.approxQuantile("n", Array(0.5), 0.0).head
      (a.getDouble(0), med, a.getLong(1), a.getLong(2))
    }
    val (ra, rm, rmin, rmax) = stats(rowsPerTable)
    val (ca, cm, cmin, cmax) = stats(colsPerTable)
    BenchFmt.print("Paper Table 3 — corpus characteristics",
      Seq("", "Average", "Median", "Min", "Max", "PaperAvg", "PaperMedian"),
      Seq(Seq("Rows", BenchFmt.f(ra), rm.toLong.toString, rmin.toString, rmax.toString, "10.37", "2"),
          Seq("Columns", BenchFmt.f(ca), cm.toLong.toString, cmin.toString, cmax.toString, "3.48", "3")))
    assert(rm <= 4, s"median rows $rm should be small (paper: 2)")
    assert(ra > rm, "row distribution must be right-skewed like the paper's")
    assert(ca >= 2 && ca <= 6, s"avg columns $ca (paper: 3.48)")
    assert(cmin >= 2)
  }
}

/** Paper Table 4: tables and value correspondences per class after matching
  * the corpus against the knowledge base.
  */
class Table04CorpusMatchBench extends SparkSpec {
  test("Table 4: matched tables / matched and unmatched values per class") {
    val ctx = BenchWorld.ctx
    val predicted = ctx.pipe.tableClass.collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    val corr = ctx.corr1 // iteration-1 attribute correspondences
    val matchedCols = corr.keySet
    // rows matched to existing instances: every label candidate may donate
    // the fact (the paper's duplicate-based matching works the same way)
    val cands = ctx.pipe.rowCands.collect()
      .map(r => ((r.getLong(0), r.getInt(1)), r.getString(2)))
      .groupBy(_._1).map { case (k, xs) => k -> xs.map(_._2) }

    val rows = BenchWorld.classes.map { cls =>
      val clsTables = predicted.filter(_._2 == cls).keySet
      val matchedTables = clsTables.filter(t => matchedCols.exists(repro.matching.Keys.colOf(_)._1 == t))
      var vMatched = 0L; var vUnmatched = 0L
      ctx.corpus.cells.foreach { c =>
        val ck = repro.matching.Keys.colKey(c.tableId, c.colId)
        if (matchedTables.contains(c.tableId) && matchedCols.contains(ck)) {
          // count only values of rows that matched candidate instances —
          // the paper profiles values "matched to existing instances"
          cands.get((c.tableId, c.rowId)).foreach { uris =>
            val prop = corr(ck)._1
            val dt = ctx.schema.getOrElse(prop, repro.core.DataType.Text)
            val eq = uris.exists { u =>
              ctx.kb.factsByUri.get(u).flatMap(_.get(prop))
                .exists(f => repro.core.TypeSim.equal(dt, c.raw, f))
            }
            if (eq) vMatched += 1 else vUnmatched += 1
          }
        }
      }
      (cls, matchedTables.size, vMatched, vUnmatched)
    }
    val paper = Map("GridironFootballPlayer" -> (10432, 206847, 35968),
                    "Song" -> (58594, 1315381, 443194),
                    "Settlement" -> (11757, 82816, 13735))
    BenchFmt.print("Paper Table 4 — matched tables and value correspondences",
      Seq("Class", "Tables", "VMatched", "VUnmatched", "PaperTables", "PaperVM", "PaperVU"),
      rows.map { case (c, t, vm, vu) =>
        Seq(c, t.toString, vm.toString, vu.toString,
            paper(c)._1.toString, paper(c)._2.toString, paper(c)._3.toString) })
    rows.foreach { case (c, t, vm, vu) =>
      assert(t > 50, s"$c: too few matched tables")
      // paper ratio is ~5:1; our corpus carries a higher long-tail share by
      // construction, so we assert a substantial matched fraction instead
      assert(vm.toDouble / (vm + vu) > 0.3,
        s"$c: matched fraction ${vm.toDouble / (vm + vu)} too low")
    }
    val song = rows.find(_._1 == "Song").get
    val others = rows.filter(_._1 != "Song")
    assert(others.forall(o => song._3 > o._3), "Song carries the most values (paper shape)")
  }
}

/** Paper Table 5: gold standard overview. */
class Table05GoldBench extends SparkSpec {
  test("Table 5: gold standard annotation counts") {
    val ctx = BenchWorld.ctx
    val gold = ctx.gold
    val rows = BenchWorld.classes.map { cls =>
      val clusters = gold.clusters.filter(_.cls == cls)
      val ids = clusters.map(_.entityId).toSet
      val grows = gold.rows.filter(r => ids.contains(r.entityId))
      val tables = grows.map(_.tableId).distinct
      val attrs = gold.attrs.filter(a => tables.contains(a.tableId))
      val facts = gold.facts.filter(f => ids.contains(f.entityId))
      (cls, tables.size, attrs.size, grows.size, clusters.count(!_.isNew),
       clusters.count(_.isNew), facts.size, facts.count(_.presentInTables))
    }
    val paper = Map(
      "GridironFootballPlayer" -> Seq(192, 572, 358, 81, 19, 475, 444),
      "Song" -> Seq(152, 248, 193, 34, 63, 231, 212),
      "Settlement" -> Seq(188, 162, 376, 49, 25, 152, 124))
    BenchFmt.print("Paper Table 5 — gold standard overview",
      Seq("Class", "Tables", "Attributes", "Rows", "Existing", "New", "Groups", "CorrectPresent",
          "(paper: T/A/R/E/N/G/CP)"),
      rows.map { case (c, t, a, r, e, n, g, cp) =>
        Seq(c, t.toString, a.toString, r.toString, e.toString, n.toString,
            g.toString, cp.toString, paper(c).mkString("/")) })
    rows.foreach { case (c, t, a, r, e, n, g, cp) =>
      val Seq(_, _, _, pe, pn, _, _) = paper(c)
      assert(e == pe && n == pn, s"$c cluster counts must match the paper exactly")
      assert(t > 10 && a > 10 && r > e + n, s"$c annotation volumes must be non-trivial")
      assert(cp <= g, s"$c correct-present cannot exceed groups")
    }
  }
}
