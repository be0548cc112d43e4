package repro.matching

import org.apache.spark.HashPartitioner
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{DataType, Pipeline, TextSim, Values}
import repro.kb.{KBInstance, KnowledgeBase}

/** Table-to-class matching (paper Section 3.1, after Ritze et al.):
  * (1) row labels are matched against a KB label index to collect candidate
  * instances per row — a class scores the number of rows with a candidate;
  * (2) duplicate-based attribute-to-property matching compares row values
  * against the candidate instances' facts — each column adds the count of
  * its best-matching property. The class with the highest aggregate wins.
  *
  * The Lucene label index of the paper is substituted by a token inverted
  * index ([[TableClassMatcher.LabelIndex]]) built on the driver and
  * broadcast to the tasks that look up row labels.
  */
object TableClassMatcher {

  /** How many candidate instances to keep per row (Lucene top-k stand-in). */
  val topKPerRow = 8
  /** Minimum Monge-Elkan label similarity for a candidate. */
  val minLabelSim = 0.72

  /** KB label tokens with a higher document frequency are stop tokens for
    * candidate generation (the Lucene index of the paper similarly down-
    * weights ubiquitous terms).
    */
  val maxKbTokenDf = 400

  /** The KB label index: each distinct normalized KB label with the
    * (uri, cls) pairs of the instances that carry it, and each kept token
    * with the labels that hold it. A token's document frequency counts its
    * occurrences over the distinct labels, once per repeat within a label;
    * tokens above [[maxKbTokenDf]] are not indexed.
    */
  final case class LabelIndex(holders: Map[String, Seq[(String, String)]],
                              labelsOf: Map[String, Seq[String]]) {

    /** Candidate instances of a normalized row label: (uri, cls, labelSim)
      * for every instance with a label that shares a kept token with it and
      * reaches [[minLabelSim]], at the instance's best label; the first
      * [[topKPerRow]] by (-labelSim, uri).
      */
    def candidates(normLabel: String): Seq[(String, String, Double)] = {
      val best = scala.collection.mutable.Map.empty[String, (String, Double)]
      TextSim.tokenize(normLabel).distinct.flatMap(labelsOf.getOrElse(_, Nil)).distinct.foreach { kbLabel =>
        val sim = TextSim.mongeElkan(normLabel, kbLabel)
        if (sim >= minLabelSim) holders(kbLabel).foreach { case (uri, cls) =>
          if (best.get(uri).forall(_._2 < sim)) best(uri) = (cls, sim)
        }
      }
      best.toSeq.map { case (uri, (cls, sim)) => (uri, cls, sim) }
        .sortBy { case (uri, _, sim) => (-sim, uri) }.take(topKPerRow)
    }
  }

  object LabelIndex {
    def apply(instances: Seq[KBInstance]): LabelIndex = {
      val holders = instances.flatMap(i => (i.label +: i.altLabels).map(l => Values.normalize(l) -> (i.uri, i.cls)))
        .groupMap(_._1)(_._2).map { case (l, hs) => l -> hs.distinct }
      val tokens = holders.keys.toSeq.map(l => l -> TextSim.tokenize(l))
      val df = tokens.flatMap(_._2).groupMapReduce(identity)(_ => 1)(_ + _)
      val labelsOf = tokens.flatMap { case (l, ts) => ts.distinct.filter(df(_) <= maxKbTokenDf).map(_ -> l) }
        .groupMap(_._1)(_._2)
      LabelIndex(holders, labelsOf)
    }
  }

  /** Assign a class to every table with a row candidate. Returns
    * (tableClass: tableId, cls, score; candidates: tableId, rowId, uri, cls,
    * labelSim), both materialized. The label index, the KB facts and the
    * label columns are broadcast, and destroyed once both are materialized.
    */
  def matchClasses(spark: SparkSession, cells: DataFrame, labelCols: DataFrame,
                   kb: KnowledgeBase): (DataFrame, DataFrame) = {
    import spark.implicits._
    val sc = spark.sparkContext
    val labelColB = sc.broadcast(labelCols.collect().map(r => r.getLong(0) -> r.getInt(1)).toMap)
    val indexB = sc.broadcast(LabelIndex(kb.instancesSeq))
    val factsB = sc.broadcast(kb.factsByUri)
    try {
      val tableCells = cells.select($"tableId", $"rowId", $"colId", $"raw").as[(Long, Int, Int, String)].rdd
      val labelCells = tableCells.filter { case (t, _, c, _) => labelColB.value.get(t).contains(c) }
      val cands = Pipeline.materialize(
        rowCandidates(labelCells.map { case (t, r, _, raw) => (t, r, Values.normalize(raw)) }, indexB)
          .toDF("tableId", "rowId", "uri", "cls", "labelSim"))
      val valueCells = tableCells.filter { case (t, _, c, _) => labelColB.value.get(t).exists(_ != c) }
      val tableClass = Pipeline.materialize(
        scoreTables(cands.as[(Long, Int, String, String, Double)].rdd, valueCells, factsB, kb.propertyTypes)
          .toDF("tableId", "cls", "score"))
      (tableClass, cands)
    } finally Seq(labelColB, indexB, factsB).foreach(_.destroy())
  }

  /** Candidate instances per row from (tableId, rowId, normLabel): (tableId,
    * rowId, uri, cls, labelSim). Rows are partitioned by label over the
    * default parallelism, so each task looks up each of its distinct labels
    * once and no other task sees that label.
    */
  def rowCandidates(rowLabels: RDD[(Long, Int, String)], indexB: Broadcast[LabelIndex])
      : RDD[(Long, Int, String, String, Double)] =
    rowLabels.map { case (t, r, l) => l -> (t, r) }
      .partitionBy(new HashPartitioner(rowLabels.sparkContext.defaultParallelism))
      .mapPartitions { rows =>
        val looked = scala.collection.mutable.Map.empty[String, Seq[(String, String, Double)]]
        rows.flatMap { case (l, (t, r)) =>
          looked.getOrElseUpdate(l, indexB.value.candidates(l)).map { case (uri, cls, sim) => (t, r, uri, cls, sim) }
        }
      }

  /** The class of each table with a candidate, in one pass per table over
    * its candidates (tableId, rowId, uri, cls, labelSim) and its non-label
    * cells (tableId, rowId, colId, raw): (tableId, cls, score). A class
    * scores the rows with a candidate of it, plus, for each column, the
    * (cell, candidate) pairs of the class in which the cell duplicates the
    * candidate's fact of the property with the most such pairs. The highest
    * score wins, ties to the smallest class name.
    */
  def scoreTables(cands: RDD[(Long, Int, String, String, Double)], cells: RDD[(Long, Int, Int, String)],
                  factsB: Broadcast[Map[String, Map[String, String]]],
                  types: Map[String, DataType]): RDD[(Long, String, Long)] =
    cands.map(c => c._1 -> (c._2, c._3, c._4))
      .cogroup(cells.map(c => c._1 -> (c._2, c._3, c._4)), cands.sparkContext.defaultParallelism)
      .flatMap { case (tableId, (rows, values)) =>
        val candsOf = rows.groupMap(_._1)(r => (r._2, r._3))
        val rowScore = rows.map(r => (r._3, r._1)).toSeq.distinct.groupMapReduce(_._1)(_ => 1L)(_ + _)
        val dups = scala.collection.mutable.Map.empty[(String, Int, String), Long].withDefaultValue(0L)
        for ((rowId, colId, raw) <- values; (uri, cls) <- candsOf.getOrElse(rowId, Nil);
             (p, v) <- factsB.value.getOrElse(uri, Map.empty[String, String])
             if Duplicates.equalValue(types, p, raw, v))
          dups((cls, colId, p)) += 1
        val attrScore = dups.toSeq.groupMapReduce { case ((cls, colId, _), _) => (cls, colId) }(_._2)(math.max)
          .toSeq.groupMapReduce(_._1._1)(_._2)(_ + _)
        rowScore.map { case (cls, n) => (cls, n + attrScore.getOrElse(cls, 0L)) }
          .minByOption { case (cls, score) => (-score, cls) }
          .map { case (cls, score) => (tableId, cls, score) }
      }
}
