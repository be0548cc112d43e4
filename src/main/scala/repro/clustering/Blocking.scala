package repro.clustering

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.TextSim

/** Label-based blocking (paper Section 3.2). The paper builds a Lucene index
  * over normalized row labels; we substitute a token inverted index realized
  * as DataFrame transformations: each label token with document frequency
  * below a cap forms a block, plus one block per exact normalized label.
  * Rows are only compared when they share a block; two clusters are only
  * compared during KLj when they share a block.
  */
object Blocking {
  /** Tokens with a higher row-frequency than this are stop tokens. */
  val maxTokenDf = 150
  /** Exact-label blocks are always kept up to this size. */
  val maxLabelDf = 500

  /** (rowKey, block) memberships. Each block kind groups its members into
    * one list per block, keeps the blocks whose list is within the kind's
    * cap and explodes them again: no join of memberships with their counts.
    */
  def rowBlocks(spark: SparkSession, profiles: DataFrame): DataFrame = {
    import spark.implicits._
    def capped(memberships: DataFrame, cap: Int): DataFrame =
      memberships.groupBy($"block").agg(collect_list($"rowKey") as "rows")
        .filter(size($"rows") <= cap)
        .select(explode($"rows") as "rowKey", $"block")
    val tok = udf((s: String) => TextSim.tokenize(s))
    val keptTokens = capped(profiles
      .select($"rowKey", explode(tok($"normLabel")) as "block")
      .distinct(), maxTokenDf)
    val keptLabels = capped(profiles
      .select($"rowKey", concat(lit("L:"), $"normLabel") as "block"), maxLabelDf)
    // 4-char prefix blocks recover typo'd labels whose tokens no longer
    // match exactly (the paper's Lucene index retrieves similar labels)
    val keptPrefixes = capped(profiles
      .select($"rowKey", concat(lit("P:"), substring($"normLabel", 1, 4)) as "block"), maxTokenDf)
    // Each kind is free of duplicates, and tokens hold no ':', so the kinds
    // are disjoint: the union needs no distinct, and no shuffle of its own.
    keptTokens.union(keptLabels).union(keptPrefixes)
  }

  /** Candidate row pairs (a < b) sharing at least one block: every pair of
    * each block's member list, then one of each pair.
    */
  def candidatePairs(spark: SparkSession, blocks: DataFrame): DataFrame = {
    import spark.implicits._
    blocks.groupBy($"block").agg(collect_list($"rowKey") as "rows")
      .select($"rows").as[Array[Long]]
      .flatMap { rows =>
        for (i <- rows.indices.iterator; j <- (i + 1 until rows.length).iterator)
          yield (math.min(rows(i), rows(j)), math.max(rows(i), rows(j)))
      }
      .toDF("a", "b")
      .distinct()
  }

  /** Block-connected components via driver-side union-find (row counts per
    * class are small enough; the edge computation — the expensive part —
    * stays distributed). Returns rowKey -> component root.
    */
  def components(blocks: Seq[(Long, String)], allRows: Seq[Long]): Map[Long, Long] = {
    val parent = scala.collection.mutable.Map.empty[Long, Long]
    def find(x: Long): Long = {
      var r = x
      while (parent.getOrElse(r, r) != r) r = parent(r)
      var c = x
      while (parent.getOrElse(c, c) != c) { val n = parent(c); parent(c) = r; c = n }
      r
    }
    def union(a: Long, b: Long): Unit = {
      val ra = find(a); val rb = find(b)
      if (ra != rb) parent(math.max(ra, rb)) = math.min(ra, rb)
    }
    blocks.groupBy(_._2).values.foreach { members =>
      val rows = members.map(_._1)
      rows.tail.foreach(union(rows.head, _))
    }
    allRows.map(r => r -> find(r)).toMap
  }
}
