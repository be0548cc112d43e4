package repro.matching

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.expressions.Window
import repro.core.{TextSim, Values}
import repro.kb.KnowledgeBase

/** Row candidates as a chain of Spark joins over exploded label tokens, the
  * way table-to-class matching computed them before the broadcast label
  * index: the reference that [[TableClassMatcher.LabelIndex]] must equal.
  */
object JoinRowCandidates {
  import TableClassMatcher.{maxKbTokenDf, minLabelSim, topKPerRow}

  /** (tableId, rowId, uri, cls, labelSim) for the label cells of `cells`. */
  def apply(cells: DataFrame, labelCols: DataFrame, kb: KnowledgeBase): DataFrame = {
    import kb.spark.implicits._
    val norm      = udf((s: String) => Values.normalize(s))
    val tokensUdf = udf((s: String) => TextSim.tokenize(s))
    val meSim     = udf((a: String, b: String) => TextSim.mongeElkan(a, b))

    val rowLabels = cells.join(labelCols.withColumnRenamed("labelColId", "colId"), Seq("tableId", "colId"))
      .select(col("tableId"), col("rowId"), norm(col("raw")) as "normLabel")
    val kbLabelRows = kb.instancesSeq.flatMap { i =>
      (i.label +: i.altLabels).map(l => (i.uri, i.cls, Values.normalize(l)))
    }.toDF("uri", "cls", "kbLabel")

    val rowTok = rowLabels.select(col("normLabel")).distinct()
      .select(col("normLabel"), explode(tokensUdf(col("normLabel"))) as "token")
    val kbTok = kbLabelRows.select(col("kbLabel")).distinct()
      .select(col("kbLabel"), explode(tokensUdf(col("kbLabel"))) as "token")
    val kbDf = kbTok.groupBy(col("token")).agg(count(lit(1)) as "df")
    val kbTokKept = kbTok.join(kbDf.filter(col("df") <= maxKbTokenDf), "token")
      .select(col("kbLabel"), col("token"))

    val labelPairs = rowTok.join(kbTokKept, "token")
      .select(col("normLabel"), col("kbLabel")).distinct()
      .withColumn("labelSim", meSim(col("normLabel"), col("kbLabel")))
      .filter(col("labelSim") >= minLabelSim)

    rowLabels
      .join(labelPairs, "normLabel")
      .join(kbLabelRows, "kbLabel")
      .groupBy(col("tableId"), col("rowId"), col("uri"), col("cls"))
      .agg(max(col("labelSim")) as "labelSim")
      .withColumn("rank", row_number().over(
        Window.partitionBy(col("tableId"), col("rowId"))
              .orderBy(col("labelSim").desc, col("uri"))))
      .filter(col("rank") <= topKPerRow)
      .drop("rank")
  }
}
