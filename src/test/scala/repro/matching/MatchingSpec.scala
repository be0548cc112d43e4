package repro.matching

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestWorld}
import repro.core.DataType
import repro.eval.Experiment
import repro.world.{Schemas, TableCellRec}

/** Integration tests for the schema-matching stages over the shared test
  * world: data-type detection, label attribute detection, table-to-class
  * matching, and attribute-to-property matching.
  */
class MatchingSpec extends SparkSpec {
  lazy val ctx = TestWorld.ctx
  import spark.implicits._

  // ---- data type detection ----------------------------------------------------
  test("cellType classifies dates, quantities and text") {
    assert(TypeDetector.cellType("1987-03-12") == DataType.Date.name)
    assert(TypeDetector.cellType("March 12, 1987") == DataType.Date.name)
    assert(TypeDetector.cellType("12,345") == DataType.Quantity.name)
    assert(TypeDetector.cellType("85 kg") == DataType.Quantity.name)
    assert(TypeDetector.cellType("springfield") == DataType.Text.name)
  }

  test("detected column types are mostly correct vs generation truth") {
    val detected = ctx.pipe.detectedTypes.collect()
      .map(r => (r.getLong(0), r.getInt(1)) -> r.getString(2)).toMap
    val expected = ctx.corpus.colTruth.filter(_.property.nonEmpty).map { ct =>
      val cls = ctx.corpus.tableClassTruth(ct.tableId)
      val dt = Schemas.propDefs(cls).find(_.property == ct.property).get.dt
      val det = dt match {
        case DataType.Date => DataType.Date.name
        case DataType.Quantity | DataType.NominalInt => DataType.Quantity.name
        // draft years etc. render as bare years -> date is also acceptable
        case _ => DataType.Text.name
      }
      ((ct.tableId, ct.colId), det, dt)
    }
    val checked = expected.flatMap { case (k, want, dt) =>
      detected.get(k).map { got =>
        val ok = got == want ||
          (dt == DataType.Date && got == DataType.Quantity.name) ||
          (dt == DataType.NominalInt && got == DataType.Date.name) ||
          (dt == DataType.Quantity && got == DataType.Date.name)
        ok
      }
    }
    val acc = checked.count(identity).toDouble / checked.size
    assert(acc > 0.9, s"type detection accuracy $acc")
  }

  test("detected types equal DuckDB's majority vote over Spark-typed cells") {
    val pipe = ctx.pipe
    val cellType = udf(TypeDetector.cellType _)
    Oracle.assertEquivalent(pipe.detectedTypes,
      """WITH votes AS (SELECT tableId, colId, cellType, COUNT(*) AS n
        |               FROM typed GROUP BY tableId, colId, cellType),
        |     rk AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY tableId, colId
        |                                         ORDER BY n DESC, cellType) AS r FROM votes)
        |SELECT tableId, colId, cellType AS detectedType FROM rk WHERE r = 1""".stripMargin,
      "typed" -> pipe.cells.select($"tableId", $"colId", cellType($"raw") as "cellType"))
  }

  // ---- label attribute detection ------------------------------------------------
  test("label columns equal DuckDB's most-distinct text column, leftmost on ties") {
    val pipe = ctx.pipe
    Oracle.assertEquivalent(pipe.labelCols,
      """WITH u AS (SELECT c.tableId, c.colId, COUNT(DISTINCT c.raw) AS uniq
        |           FROM cells c JOIN col_types t ON c.tableId = t.tableId AND c.colId = t.colId
        |           WHERE t.detectedType = 'text' GROUP BY c.tableId, c.colId),
        |     rk AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY tableId
        |                                         ORDER BY uniq DESC, CAST(colId AS INTEGER)) AS r
        |            FROM u)
        |SELECT tableId, colId AS labelColId FROM rk WHERE r = 1""".stripMargin,
      "cells" -> pipe.cells.select($"tableId", $"colId", $"raw"),
      "col_types" -> pipe.detectedTypes)
  }

  test("label attribute detection finds the true label column in most tables") {
    val detected = ctx.pipe.labelCols.collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    val truth = ctx.corpus.colTruth.filter(_.isLabel).map(ct => ct.tableId -> ct.colId).toMap
    val joint = truth.keys.filter(detected.contains)
    val acc = joint.count(t => detected(t) == truth(t)).toDouble / joint.size
    assert(acc > 0.85, s"label column accuracy $acc")
  }

  // ---- table-to-class matching ----------------------------------------------------
  test("table-to-class matching is mostly correct on main-class tables") {
    val predicted = ctx.pipe.tableClass.collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    val mainTables = ctx.corpus.tableClassTruth.filter(t => Schemas.mainClasses.contains(t._2))
    val checked = mainTables.toSeq.flatMap { case (t, cls) => predicted.get(t).map(_ == cls) }
    val acc = checked.count(identity).toDouble / checked.size
    assert(acc > 0.8, s"table-class accuracy $acc (paper reports 0.97 at corpus scale)")
    assert(checked.size.toDouble / mainTables.size > 0.8, "most tables must receive a class")
  }

  test("row candidates include the true instance for existing entities") {
    val cands = ctx.pipe.rowCands
      .select($"tableId", $"rowId", $"uri").collect()
      .map(r => (r.getLong(0), r.getInt(1)) -> r.getString(2))
      .groupBy(_._1).map { case (k, xs) => k -> xs.map(_._2).toSet }
    val existingRows = ctx.corpus.rowTruth.filter(r => !r.isNew && r.uri.nonEmpty)
    val hit = existingRows.count(r => cands.getOrElse((r.tableId, r.rowId), Set.empty).contains(r.uri))
    val recall = hit.toDouble / existingRows.size
    assert(recall > 0.6, s"candidate recall $recall")
  }

  test("table classes equal DuckDB's ranking of row and duplicate scores") {
    val pipe = ctx.pipe
    val nonLabelCells = pipe.cells.join(pipe.labelCols, "tableId").filter($"colId" =!= $"labelColId")
      .select($"tableId", $"rowId", $"colId", $"raw")
    val dups = Duplicates.kbFacts(nonLabelCells, pipe.rowCands, ctx.kb).filter($"equal")
    Oracle.assertEquivalent(pipe.tableClass,
      """WITH rs AS (SELECT tableId, cls, COUNT(DISTINCT rowId) AS rowScore
        |            FROM cands GROUP BY tableId, cls),
        |     cc AS (SELECT tableId, cls, colId, COUNT(*) AS cnt
        |            FROM dups GROUP BY tableId, cls, colId, property),
        |     cb AS (SELECT tableId, cls, colId, MAX(cnt) AS colBest
        |            FROM cc GROUP BY tableId, cls, colId),
        |     ats AS (SELECT tableId, cls, SUM(colBest) AS attrScore FROM cb GROUP BY tableId, cls),
        |     sc AS (SELECT tableId, cls, CAST(rowScore + COALESCE(attrScore, 0) AS BIGINT) AS score
        |            FROM rs LEFT JOIN ats USING (tableId, cls)),
        |     rk AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY tableId ORDER BY score DESC, cls) AS r
        |            FROM sc)
        |SELECT tableId, cls, score FROM rk WHERE r = 1""".stripMargin,
      "cands" -> pipe.rowCands.select($"tableId", $"rowId", $"cls"),
      "dups" -> dups.select($"tableId", $"cls", $"colId", $"property"))
  }

  // ---- attribute-to-property matching ------------------------------------------------
  test("iteration-1 attribute matching clears a minimum F1 on gold tables") {
    val corr = ctx.corr1.toSeq.map { case (ck, (p, _)) => (Keys.colOf(ck), p) }
    val (pr, rc, f1) = AttributeMatcher.evaluate(corr, ctx.goldAttrMap, ctx.gold.tableIds)
    assert(f1 > 0.5, s"iteration-1 attr F1 too low: P=$pr R=$rc F1=$f1")
    assert(pr > 0.6, s"iteration-1 attr precision too low: $pr")
  }

  test("KB-Label matches a property with an empty label list on its name") {
    val pipe = ctx.pipe
    val tables = pipe.tableClass.filter($"cls" === Schemas.GFPlayer).orderBy($"tableId").limit(5)
    def kbLabel(labels: Map[String, Seq[String]]): Map[(Long, Int), Double] =
      AttributeMatcher.features(spark, pipe.cells, pipe.columns, pipe.detectedTypes, pipe.labelCols,
                                tables, ctx.kb, labels, None)
        .filter($"property" === "team").select($"tableId", $"colId", $"kbLabel").collect()
        .map(r => (r.getLong(0), r.getInt(1)) -> r.getDouble(2)).toMap
    val empty = kbLabel(Schemas.kbPropertyLabels + ("team" -> Nil))
    assert(empty.nonEmpty)
    assert(empty == kbLabel(Schemas.kbPropertyLabels - "team"))
  }

  test("candidate types block by detected type") {
    assert(AttributeMatcher.candidateTypes("text").contains(DataType.InstanceRef.name))
    assert(!AttributeMatcher.candidateTypes("text").contains(DataType.Quantity.name))
    assert(AttributeMatcher.candidateTypes("quantity") ==
      Seq(DataType.Quantity.name, DataType.NominalInt.name))
    assert(AttributeMatcher.candidateTypes("date").contains(DataType.Date.name))
  }

  test("KB-Overlap profiles fit values of the right property") {
    val profiles = AttributeMatcher.buildPropProfiles(ctx.kb)
    val heightProfile = profiles((Schemas.GFPlayer, "height"))
    assert(AttributeMatcher.overlapFit(heightProfile, "72") == 1.0)
    assert(AttributeMatcher.overlapFit(heightProfile, "5000") == 0.0)
    val posProfile = profiles((Schemas.GFPlayer, "position"))
    assert(AttributeMatcher.overlapFit(posProfile, "QB") == 1.0)
    assert(AttributeMatcher.overlapFit(posProfile, "zz") == 0.0)
  }

  test("Keys round-trip table/row/col identifiers") {
    assert(Keys.rowKey(42L, 7) == 4200007L)
    assert(Keys.colKey(42L, 3) == 42003L)
    assert(Keys.colOf(Keys.colKey(42L, 3)) == ((42L, 3)))
    assert(Keys.rowOf(Keys.rowKey(42L, 7)) == ((42L, 7)))
  }

  private def oversized(cell: TableCellRec => TableCellRec): IllegalArgumentException = {
    val corpus = ctx.corpus
    val bad = corpus.copy(cells = corpus.cells :+ cell(corpus.cells.head))
    intercept[IllegalArgumentException](new Experiment.Ctx(spark, ctx.world, bad))
  }

  test("a corpus with a row id past the row-key range is rejected") {
    val e = oversized(_.copy(rowId = Keys.RowsPerTable.toInt))
    assert(e.getMessage.startsWith("row id 100000 "))
  }

  test("a corpus with a column id past the column-key range is rejected") {
    val e = oversized(_.copy(colId = Keys.ColsPerTable.toInt))
    assert(e.getMessage.startsWith("column id 1000 "))
  }
}
