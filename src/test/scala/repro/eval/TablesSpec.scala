package repro.eval

import repro.{Oracle, SparkSpec, TestWorld}
import repro.world.Schemas

/** The cheap paper tables (1, 3 and 5) on the test-scale world, checked
  * against the inputs they count.
  */
class TablesSpec extends SparkSpec {
  lazy val tables = new Tables(TestWorld.ctx)
  lazy val ctx = TestWorld.ctx

  test("Table 1 equals the instance and fact counts of the KB") {
    val kb = ctx.kb
    assert(tables.table1.rows.map(_.cls) == Schemas.mainClasses.sorted)
    tables.table1.rows.foreach { r =>
      assert(r.instances == kb.instancesSeq.count(_.cls == r.cls), r.cls)
      assert(r.facts == kb.factsSeq.count(f => kb.instanceByUri(f.uri).cls == r.cls), r.cls)
    }
  }

  test("Table 3 rows per table (avg/min/max) match DuckDB") {
    import spark.implicits._
    val r = tables.table3.rows
    Oracle.assertEquivalent(Seq((r.avg, r.min, r.max)).toDF("avgRows", "minRows", "maxRows"),
      """WITH rt AS (SELECT tableId, COUNT(DISTINCT rowId) AS n FROM cells GROUP BY tableId)
        |SELECT AVG(n) AS avgRows, MIN(n) AS minRows, MAX(n) AS maxRows FROM rt""".stripMargin,
      "cells" -> ctx.corpus.cellsDF(spark).select($"tableId", $"rowId"))
  }

  test("Table 5 existing and new counts equal the gold clusters per class") {
    assert(tables.table5.rows.map(_.cls) == Schemas.mainClasses)
    tables.table5.rows.foreach { r =>
      val clusters = ctx.gold.clusters.filter(_.cls == r.cls)
      assert(r.existing == clusters.count(!_.isNew), r.cls)
      assert(r.newClusters == clusters.count(_.isNew), r.cls)
    }
  }
}
