package repro.clustering

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{DataType, Pipeline, TextSim, TypeSim, Values}
import repro.kb.KnowledgeBase
import repro.matching.Keys

/** Everything row-level the similarity metrics need, assembled once with
  * DataFrame aggregations: label, bag-of-words, the table's PHI label-
  * correlation vector, values mapped to KB properties, and the table's
  * implicit attributes (encoded "property|value" -> score).
  */
case class RowProfile(rowKey: Long, tableId: Long, cls: String,
                      label: String, normLabel: String,
                      tokens: Seq[String],
                      phi: Map[Long, Double],
                      values: Map[String, String],
                      valueCols: Map[String, Long],
                      implicitAtts: Map[String, Double])

object RowProfiles {
  /** Separator inside implicit-attribute keys. */
  private val Sep = "|"
  /** Keep a table-level implicit property-value combination only when at
    * least this fraction of rows supports it (paper: "a certain threshold").
    */
  val implicitThreshold = 0.5
  /** Cap per-table PHI vector size. */
  val phiCap = 40

  /** The implicit-attribute key of a property and a value. */
  private def combo(property: String, value: String): String = property + Sep + Values.normalize(value)

  /** A row's value of a property: its mapped value, else the value of its
    * table's first implicit attribute with that property.
    */
  def valueOf(row: RowProfile, p: String): Option[String] =
    row.values.get(p).orElse(
      row.implicitAtts.keysIterator.find(_.startsWith(p + Sep)).map(_.substring(p.length + 1)))

  /** IMPLICIT_ATT of rows and entities. Each implicit attribute whose property
    * has a value under its side's lookup is compared; all sides add to one
    * running sum. (agreeing / compared weight, compared weight), or (0, 0).
    */
  def implicitAgreement(schema: Map[String, DataType],
                        sides: (Map[String, Double], String => Option[String])*): (Double, Double) = {
    var sum = 0.0; var compared = 0.0
    sides.foreach { case (combos, valueOf) =>
      combos.foreach { case (key, w) =>
        val i = key.indexOf(Sep)
        if (i > 0) {
          val p = key.substring(0, i)
          valueOf(p).foreach { other =>
            compared += w
            if (TypeSim.equalFor(schema, p, key.substring(i + 1), other)) sum += w
          }
        }
      }
    }
    if (compared > 0) (sum / compared, compared) else (0.0, 0.0)
  }

  /** Build profiles for all rows of the given class.
    *
    * @param attrCorr  colKey -> matched property (this iteration's mapping)
    * @param rowCands  candidates from TableClassMatcher (tableId,rowId,uri,cls,labelSim)
    */
  def build(spark: SparkSession, cls: String, cells: DataFrame, labelCols: DataFrame,
            classTables: DataFrame, attrCorr: Map[Long, String],
            rowCands: DataFrame, kb: KnowledgeBase): org.apache.spark.sql.Dataset[RowProfile] = {
    import spark.implicits._

    val clsCells = cells.join(classTables.select($"tableId"), "tableId")

    // ---- core: label, tokens, property values per row ---------------------
    val attrCorrB = spark.sparkContext.broadcast(attrCorr)
    val labelColB = spark.sparkContext.broadcast(
      labelCols.collect().map(r => r.getLong(0) -> r.getInt(1)).toMap)
    val core = clsCells
      .groupBy($"tableId", $"rowId")
      .agg(collect_list(struct($"colId", $"raw")) as "cs")
      .as[(Long, Int, Seq[(Int, String)])]
      .map { case (tableId, rowId, unordered) =>
        // In column order, so that of two columns mapped to one property the
        // later one wins whatever order the cells were collected in.
        val cs = unordered.sortBy(_._1)
        val labelCol = labelColB.value.getOrElse(tableId, 0)
        val label = cs.find(_._1 == labelCol).map(_._2).getOrElse("")
        val tokens = cs.flatMap(c => TextSim.tokenize(c._2)).distinct.sorted
        val mapped = cs.flatMap { case (colId, raw) =>
          attrCorrB.value.get(Keys.colKey(tableId, colId))
            .map(prop => (prop, raw, Keys.colKey(tableId, colId)))
        }
        val values = mapped.map(m => m._1 -> m._2).toMap
        val valueCols = mapped.map(m => m._1 -> m._3).toMap
        (Keys.rowKey(tableId, rowId), tableId, label, Values.normalize(label),
         tokens, values, valueCols)
      }.toDF("rowKey", "tableId", "label", "normLabel", "tokens", "values", "valueCols")

    // ---- PHI: label correlation vectors, averaged per table ---------------
    // Label ids follow the label text, not the partition layout: the PHI cap
    // breaks ties on them. Ids are the labels' ranks in sorted order, from 1.
    val labelIds = Pipeline.materialize(core.select($"normLabel").distinct().orderBy($"normLabel")
      .as[String].rdd.zipWithIndex().map { case (l, i) => (l, i + 1) }.toDF("normLabel", "labelId"))
    val tl = Pipeline.materialize(core.join(labelIds, "normLabel")
      .select($"tableId", $"labelId").distinct())
    val nLabels = labelIds.count().toDouble
    val na = tl.groupBy($"labelId").agg(count(lit(1)) as "na")
    val pairs = tl.as("x").join(tl.as("y"), col("x.tableId") === col("y.tableId"))
      .filter(col("x.labelId") =!= col("y.labelId"))
      .groupBy(col("x.labelId") as "l1", col("y.labelId") as "l2")
      .agg(count(lit(1)) as "nab")
    val phiOf = udf((nab: Long, na1: Long, na2: Long) => {
      val n = nLabels
      val denom = math.sqrt(na1.toDouble * na2 * (n - na1) * (n - na2))
      if (denom == 0.0) 0.0 else (n * nab - na1.toDouble * na2) / denom
    })
    val labelVecs = pairs
      .join(na.withColumnRenamed("labelId", "l1").withColumnRenamed("na", "na1"), "l1")
      .join(na.withColumnRenamed("labelId", "l2").withColumnRenamed("na", "na2"), "l2")
      .withColumn("phi", phiOf($"nab", $"na1", $"na2"))
      .groupBy($"l1").agg(map_from_entries(collect_list(struct($"l2", $"phi"))) as "vec")
    // Vectors are summed in labelId order, so the floating-point sums do not
    // depend on collect order. Labels without co-occurrences carry a null
    // vector; the denominator stays the table's label count, as the paper
    // averages the vectors of all row labels.
    val avgVecs = udf((vecs: Seq[Row], nLabels: Long) => {
      val acc = scala.collection.mutable.Map.empty[Long, Double]
      vecs.sortBy(_.getLong(0)).flatMap(v => Option(v.getMap[Long, Double](1))).foreach(
        _.foreach { case (k, v) => acc(k) = acc.getOrElse(k, 0.0) + v })
      val m = math.max(1L, nLabels).toDouble
      acc.toSeq.map { case (k, v) => k -> v / m }
        .sortBy { case (k, v) => (-math.abs(v), k) }.take(phiCap).toMap
    })
    val tablePhi = tl.join(labelVecs, tl("labelId") === labelVecs("l1"), "left")
      .groupBy($"tableId")
      .agg(count(lit(1)) as "nLabels", collect_list(struct($"labelId", $"vec")) as "vecs")
      .select($"tableId", avgVecs($"vecs", $"nLabels") as "phi")

    // ---- implicit attributes per table ------------------------------------
    val factsByUriB = spark.sparkContext.broadcast(kb.factsByUri)
    val rowCombos = rowCands
      .join(classTables.select($"tableId"), "tableId")
      .select($"tableId", $"rowId", $"uri")
      .as[(Long, Int, String)]
      .flatMap { case (t, r, uri) =>
        factsByUriB.value.getOrElse(uri, Map.empty[String, String]).map { case (p, v) =>
          (t, r, combo(p, v))
        }
      }.distinct().toDF("tableId", "rowId", "combo")
    val rowsPerTable = core.groupBy($"tableId").agg(count(lit(1)) as "nRows")
    val tableImplicit = rowCombos
      .groupBy($"tableId", $"combo").agg(countDistinct($"rowId") as "cnt")
      .join(rowsPerTable, "tableId")
      .withColumn("score", $"cnt" / $"nRows")
      .filter($"score" >= implicitThreshold)
      .groupBy($"tableId")
      // Sorted: valueOf takes the first key with a property's prefix, and
      // small Scala maps keep insertion order.
      .agg(map_from_entries(sort_array(collect_list(struct($"combo", $"score")))) as "implicitAtts")

    core
      .join(tablePhi, Seq("tableId"), "left")
      .join(tableImplicit, Seq("tableId"), "left")
      .select($"rowKey", $"tableId", lit(cls) as "cls", $"label", $"normLabel",
              $"tokens",
              coalesce($"phi", typedLit(Map.empty[Long, Double])) as "phi",
              $"values", $"valueCols",
              coalesce($"implicitAtts", typedLit(Map.empty[String, Double])) as "implicitAtts")
      .as[RowProfile]
  }
}
