package repro.clustering

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.DataType
import repro.learn.Aggregator

/** A scored row pair; `score` is the aggregated similarity in [-1, 1]. */
case class Edge(a: Long, b: Long, score: Double)

/** Pair feature rows (kept separate from scores so the same features can be
  * reused across ablation runs and aggregator choices).
  */
case class PairFeature(a: Long, b: Long, features: Seq[Double])

object PairFeatures {
  /** Compute the full 8-feature vector for every candidate pair, as a
    * distributed join of the pair list with the row profiles. The joined
    * pairs are spread over every core before the features are computed:
    * with broadcast profile joins they would keep the partitioning of the
    * candidate pairs' small shuffle read, which AQE coalesces to one
    * partition, and the features would run as one task.
    */
  def compute(spark: SparkSession, profiles: Dataset[RowProfile], pairs: DataFrame,
              schema: Map[String, DataType]): Dataset[PairFeature] = {
    import spark.implicits._
    val schemaB = spark.sparkContext.broadcast(schema)
    val profDF = profiles.toDF()
    def side(key: String) =
      profDF.select($"rowKey" as key, struct(profDF.columns.map(col): _*) as s"p$key")
    pairs.join(side("a"), "a").join(side("b"), "b")
      .select($"a", $"b", $"pa", $"pb")
      .repartition(spark.sparkContext.defaultParallelism, $"a", $"b")
      .as[(Long, Long, RowProfile, RowProfile)]
      .map { case (a, b, pa, pb) =>
        PairFeature(a, b, RowSimilarity.features(pa, pb, schemaB.value).toSeq)
      }
  }
}

/** Correlation clustering (paper Section 3.2): a parallelized greedy pass —
  * each block-connected component is clustered independently inside
  * `flatMapGroups` — followed by a Kernighan-Lin-with-joins refinement that
  * moves rows between cluster pairs, merges pairs, and splits clusters while
  * the local fitness (sum of intra-cluster pair scores) improves.
  */
object GreedyClusterer {

  /** Score edges with a trained aggregator (only edges are materialized;
    * features of active metrics are selected by `featIdx`).
    */
  def scoreEdges(spark: SparkSession, feats: Dataset[PairFeature],
                 agg: Aggregator, featIdx: Array[Int]): Dataset[Edge] = {
    import spark.implicits._
    val aggB = spark.sparkContext.broadcast(agg)
    val idxB = spark.sparkContext.broadcast(featIdx)
    feats.map { pf =>
      val sel = idxB.value.map(pf.features)
      Edge(pf.a, pf.b, aggB.value.normScore(sel))
    }
  }

  /** Cluster all rows; returns rowKey -> clusterId (clusterId = smallest
    * rowKey in the cluster).
    */
  def cluster(spark: SparkSession, edges: Dataset[Edge],
              components: Map[Long, Long]): Map[Long, Long] = {
    import spark.implicits._
    val compB = spark.sparkContext.broadcast(components)
    val rowsDS = components.keys.toSeq.toDS().map(r => (compB.value(r), r))
    val edgesDS = edges.map(e => (compB.value(e.a), e))
    val assigned = rowsDS.groupByKey(_._1).cogroup(edgesDS.groupByKey(_._1)) {
      (_, rowIt, edgeIt) =>
        val rows = rowIt.map(_._2).toSeq.sorted
        val es = edgeIt.map(_._2).toSeq.sortBy(e => (e.a, e.b))
        clusterComponent(rows, es).iterator
    }
    try assigned.collect().toMap finally compB.destroy()
  }

  /** Greedy + KLj for one component. Returns (rowKey, clusterId) pairs. */
  def clusterComponent(rows: Seq[Long], edges: Seq[Edge]): Seq[(Long, Long)] = {
    // adjacency: row -> (neighbor -> score)
    val adj = scala.collection.mutable.Map.empty[Long, scala.collection.mutable.Map[Long, Double]]
    def put(a: Long, b: Long, s: Double): Unit =
      adj.getOrElseUpdate(a, scala.collection.mutable.Map.empty)(b) = s
    edges.foreach { e => put(e.a, e.b, e.score); put(e.b, e.a, e.score) }

    // ---- greedy pass -------------------------------------------------------
    val clusterOf = scala.collection.mutable.Map.empty[Long, Int]
    val members = scala.collection.mutable.ArrayBuffer.empty[scala.collection.mutable.Set[Long]]
    rows.foreach { r =>
      val neigh = adj.getOrElse(r, scala.collection.mutable.Map.empty)
      val scores = scala.collection.mutable.Map.empty[Int, Double]
      neigh.foreach { case (n, s) =>
        clusterOf.get(n).foreach(c => scores(c) = scores.getOrElse(c, 0.0) + s)
      }
      val best = if (scores.isEmpty) None else Some(scores.maxBy { case (c, s) => (s, -c) })
      best match {
        case Some((c, s)) if s > 0 =>
          clusterOf(r) = c; members(c) += r
        case _ =>
          clusterOf(r) = members.size
          members += scala.collection.mutable.Set(r)
      }
    }

    // ---- KLj refinement ----------------------------------------------------
    def s(r: Long, cluster: scala.collection.mutable.Set[Long]): Double = {
      val neigh = adj.getOrElse(r, scala.collection.mutable.Map.empty)
      var acc = 0.0
      cluster.foreach { m => if (m != r) acc += neigh.getOrElse(m, 0.0) }
      acc
    }
    var changed = true; var pass = 0
    while (changed && pass < 8) {
      changed = false; pass += 1
      // cluster pairs connected by at least one edge
      val pairSet = scala.collection.mutable.Set.empty[(Int, Int)]
      edges.foreach { e =>
        val ca = clusterOf(e.a); val cb = clusterOf(e.b)
        if (ca != cb) pairSet += ((math.min(ca, cb), math.max(ca, cb)))
      }
      pairSet.toSeq.sorted.foreach { case (c1, c2) =>
        val m1 = members(c1); val m2 = members(c2)
        if (m1.nonEmpty && m2.nonEmpty) {
          val cross = m1.toSeq.map(r => s(r, m2)).sum
          if (cross > 0) { // merge
            m2.foreach { r => clusterOf(r) = c1; m1 += r }
            m2.clear(); changed = true
          } else {
            // try single-row moves in both directions
            def tryMoves(from: Int, to: Int): Unit = {
              members(from).toSeq.sorted.foreach { r =>
                if (members(from).size > 1 || members(to).nonEmpty) {
                  val gain = s(r, members(to)) - s(r, members(from))
                  if (gain > 1e-12) {
                    members(from) -= r; members(to) += r; clusterOf(r) = to
                    changed = true
                  }
                }
              }
            }
            tryMoves(c1, c2); tryMoves(c2, c1)
          }
        }
      }
      // splits: move a negatively-tied row to its own cluster
      members.indices.foreach { c =>
        if (members(c).size > 1) {
          members(c).toSeq.sorted.foreach { r =>
            if (members(c).size > 1 && s(r, members(c)) < 0) {
              members(c) -= r
              clusterOf(r) = members.size
              members += scala.collection.mutable.Set(r)
              changed = true
            }
          }
        }
      }
    }

    members.filter(_.nonEmpty).flatMap { m =>
      val id = m.min
      m.toSeq.map(_ -> id)
    }.toSeq
  }
}
