package repro.matching

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.expressions.Window
import repro.core.{Pipeline, TextSim, Values}
import repro.kb.KnowledgeBase

/** Table-to-class matching (paper Section 3.1, after Ritze et al.):
  * (1) row labels are matched against a KB label index to collect candidate
  * instances per row — a class scores the number of rows with a candidate;
  * (2) duplicate-based attribute-to-property matching compares row values
  * against the candidate instances' facts — each column adds the count of
  * its best-matching property. The class with the highest aggregate wins.
  *
  * The Lucene label index of the paper is substituted by a token inverted
  * index realized as a Spark join (explode tokens on both sides).
  */
object TableClassMatcher {

  /** How many candidate instances to keep per row (Lucene top-k stand-in). */
  val topKPerRow = 8
  /** Minimum Monge-Elkan label similarity for a candidate. */
  val minLabelSim = 0.72

  /** Row labels: (tableId, rowId, rowLabel, normLabel). */
  def rowLabels(cells: DataFrame, labelCols: DataFrame): DataFrame = {
    val norm = udf((s: String) => Values.normalize(s))
    cells.join(labelCols.withColumnRenamed("labelColId", "colId"), Seq("tableId", "colId"))
      .select(col("tableId"), col("rowId"), col("raw") as "rowLabel",
              norm(col("raw")) as "normLabel")
  }

  /** KB label tokens with a higher document frequency are stop tokens for
    * candidate generation (the Lucene index of the paper similarly down-
    * weights ubiquitous terms).
    */
  val maxKbTokenDf = 400

  /** Candidate instances per row via token join + label-similarity filter:
    * (tableId, rowId, uri, cls, labelSim). The expensive Monge-Elkan UDF is
    * evaluated once per distinct (row label, KB label) pair.
    */
  def rowCandidates(spark: SparkSession, rowLabelsDF: DataFrame, kb: KnowledgeBase): DataFrame = {
    val tokensUdf = udf((s: String) => TextSim.tokenize(s))
    val meSim     = udf((a: String, b: String) => TextSim.mongeElkan(a, b))

    val rowTok = rowLabelsDF.select(col("normLabel")).distinct()
      .select(col("normLabel"), explode(tokensUdf(col("normLabel"))) as "token")
    val kbLabels = kb.labelsDF.select(col("normLabel") as "kbLabel").distinct()
    val kbTok = kbLabels
      .select(col("kbLabel"), explode(tokensUdf(col("kbLabel"))) as "token")
    val kbDf = kbTok.groupBy(col("token")).agg(count(lit(1)) as "df")
    val kbTokKept = kbTok.join(kbDf.filter(col("df") <= maxKbTokenDf), "token")
      .select(col("kbLabel"), col("token"))

    val labelPairs = rowTok.join(kbTokKept, "token")
      .select(col("normLabel"), col("kbLabel")).distinct()
      .withColumn("labelSim", meSim(col("normLabel"), col("kbLabel")))
      .filter(col("labelSim") >= minLabelSim)

    rowLabelsDF.select(col("tableId"), col("rowId"), col("normLabel"))
      .join(labelPairs, "normLabel")
      .join(kb.labelsDF.withColumnRenamed("normLabel", "kbLabel"), "kbLabel")
      .groupBy(col("tableId"), col("rowId"), col("uri"), col("cls"))
      .agg(max(col("labelSim")) as "labelSim")
      .withColumn("rank", row_number().over(
        Window.partitionBy(col("tableId"), col("rowId"))
              .orderBy(col("labelSim").desc, col("uri"))))
      .filter(col("rank") <= topKPerRow)
      .drop("rank")
  }

  /** Assign a class to every table. Returns
    * (tableClass: tableId, cls, score; candidates: rowCandidates output).
    */
  def matchClasses(spark: SparkSession, cells: DataFrame, labelCols: DataFrame,
                   kb: KnowledgeBase): (DataFrame, DataFrame) = {
    val labels = rowLabels(cells, labelCols)
    val cands  = Pipeline.materialize(rowCandidates(spark, labels, kb))

    // (1) row-candidate score per class
    val rowScore = cands.groupBy(col("tableId"), col("cls"))
      .agg(countDistinct(col("rowId")) as "rowScore")

    // (2) duplicate-based column score: cells equal to a candidate's fact
    val nonLabelCells = cells.join(
      labelCols.withColumnRenamed("labelColId", "labelCol"), Seq("tableId"))
      .filter(col("colId") =!= col("labelCol"))
      .select(col("tableId"), col("rowId"), col("colId"), col("raw"))

    val dupMatches = Duplicates.kbFacts(nonLabelCells, cands, kb)
      .filter(col("equal"))
      .groupBy(col("tableId"), col("cls"), col("colId"), col("property"))
      .agg(count(lit(1)) as "cnt")
      .groupBy(col("tableId"), col("cls"), col("colId"))
      .agg(max(col("cnt")) as "colBest")
      .groupBy(col("tableId"), col("cls"))
      .agg(sum(col("colBest")) as "attrScore")

    val tableClass = rowScore
      .join(dupMatches, Seq("tableId", "cls"), "left")
      .na.fill(0L, Seq("attrScore"))
      .withColumn("score", col("rowScore") + col("attrScore"))
      .withColumn("rank", row_number().over(
        Window.partitionBy(col("tableId"))
              .orderBy(col("score").desc, col("cls"))))
      .filter(col("rank") === 1)
      .select(col("tableId"), col("cls"), col("score"))

    (tableClass, cands)
  }
}
