package repro.clustering

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestWorld}
import repro.core.TextSim
import repro.world.Schemas

/** Integration tests for profiles, blocking and distributed clustering over
  * the shared test world (GF-Player class).
  */
class ClusteringSpec extends SparkSpec {
  lazy val ctx = TestWorld.ctx
  lazy val cls = Schemas.GFPlayer
  lazy val profiles = ctx.profiles1(cls)
  lazy val (pairDS, comps) = ctx.pairStage1(cls)
  lazy val pairFeats = pairDS.collect().toSeq // test scale: safe to collect

  test("profiles cover the class's rows and carry labels") {
    assert(profiles.nonEmpty)
    assert(profiles.forall(_.normLabel.nonEmpty))
    assert(profiles.forall(_.cls == cls))
  }

  test("profiles carry mapped values for matched columns") {
    val withValues = profiles.count(_.values.nonEmpty)
    assert(withValues > profiles.size / 3, s"only $withValues of ${profiles.size} rows have values")
  }

  test("some tables derive implicit attributes") {
    assert(profiles.exists(_.implicitAtts.nonEmpty),
      "no implicit attributes derived — IMPLICIT_ATT would be dead")
  }

  test("PHI vectors are non-trivial for rows of recurring labels") {
    assert(profiles.exists(_.phi.nonEmpty), "no PHI vectors derived")
  }

  test("blocking produces pairs and components consistent with rows") {
    assert(pairFeats.nonEmpty)
    val rows = profiles.map(_.rowKey).toSet
    assert(pairFeats.forall(p => rows.contains(p.a) && rows.contains(p.b)))
    assert(comps.keySet == rows)
  }

  test("grouped blocking gives the memberships and pairs of the join formulation") {
    import spark.implicits._
    // Over the caps: a label (501 rows: its label, token and prefix blocks),
    // a token and its prefix (160 rows), a prefix of distinct tokens (155
    // rows). At the cap: a token and its prefix (150 rows). Within them:
    // small token, label and prefix blocks.
    val labels = Seq.fill(501)("alpha beta") ++ (1 to 160).map(i => s"gamma g$i") ++
      (1 to 155).map(i => s"deltaword$i") ++ (1 to 150).map(i => s"kappa k$i") ++
      Seq("epsilon one", "epsilon two", "epsilon one", "zetaa", "zetab", "eta theta")
    val profiles = labels.zipWithIndex.map { case (l, i) => (i.toLong * 7 % 1000, l) }
      .toDF("rowKey", "normLabel")
    val blocks = Blocking.rowBlocks(spark, profiles)
    val reference = JoinBlocking.rowBlocks(spark, profiles)
    val memberships = blocks.as[(Long, String)].collect().sorted.toSeq
    assert(memberships == reference.as[(Long, String)].collect().sorted.toSeq)
    assert(!memberships.exists(_._2 == "alpha") && !memberships.exists(_._2 == "L:alpha beta") &&
           !memberships.exists(_._2 == "gamma") && !memberships.exists(_._2 == "P:delt"),
           "a block over its cap was kept")
    assert(memberships.count(_._2 == "kappa") == Blocking.maxTokenDf)
    assert(memberships.exists(_._2 == "L:epsilon one") && memberships.exists(_._2 == "P:zeta"))
    val pairs = Blocking.candidatePairs(spark, blocks).as[(Long, Long)].collect().sorted.toSeq
    assert(pairs.nonEmpty)
    assert(pairs == JoinBlocking.candidatePairs(spark, reference).as[(Long, Long)].collect().sorted.toSeq)
  }

  test("blocking keeps same-gold-cluster pairs together (recall)") {
    val goldPairs = ctx.goldRowCluster.toSeq
      .filter { case (rk, _) => rows(rk) }
      .groupBy(_._2).values.filter(_.size > 1)
      .flatMap(g => g.map(_._1).sorted.combinations(2).map(s => (s(0), s(1))))
      .toSet
    val candidate = pairFeats.map(p => (math.min(p.a, p.b), math.max(p.a, p.b))).toSet
    val recall = goldPairs.count(candidate.contains).toDouble / math.max(1, goldPairs.size)
    assert(recall > 0.9, s"blocking recall $recall — paper reports no F1 loss from blocking")
  }
  private def rows(rk: Long) = profiles.exists(_.rowKey == rk)

  test("pair features are in expected ranges") {
    pairFeats.take(500).foreach { p =>
      val f = p.features
      assert(f.size == RowSimilarity.dim)
      assert(f(0) >= 0 && f(0) <= 1, "LABEL")
      assert(f(1) >= 0 && f(1) <= 1, "BOW")
      assert(f(3) >= 0 && f(3) <= 1, "ATTRIBUTE")
      assert(f(7) == 0.0 || f(7) == 1.0, "SAME_TABLE")
    }
  }

  test("same-table pairs have SAME_TABLE = 0") {
    val byTable = profiles.groupBy(_.tableId).values.find(_.size >= 2)
    byTable.foreach { rows =>
      val ks = rows.map(_.rowKey).sorted
      pairFeats.find(p => p.a == ks(0) && p.b == ks(1)).foreach { p =>
        assert(p.features(7) == 0.0)
      }
    }
  }

  test("learned clustering beats label-only on gold rows") {
    val learnRows = ctx.goldRowCluster.keySet
    val (aggAll, fiAll) = repro.core.PipelineRunner.learnClusterAgg(
      pairFeats, ctx.goldRowCluster, learnRows, RowSimilarity.metricNames, 5)
    val (aggLabel, fiLabel) = repro.core.PipelineRunner.learnClusterAgg(
      pairFeats, ctx.goldRowCluster, learnRows, Seq("LABEL"), 5)
    def run(agg: repro.learn.Aggregator, fi: Array[Int]): ClusteringEval.Result = {
      val edges = GreedyClusterer.scoreEdges(ctx.spark, pairDS, agg, fi)
      val assigned = GreedyClusterer.cluster(ctx.spark, edges, comps)
      ClusteringEval.evaluate(
        assigned.filter { case (rk, _) => ctx.goldRowCluster.contains(rk) },
        ctx.goldRowCluster.filter { case (rk, _) => comps.contains(rk) })
    }
    val all = run(aggAll, fiAll)
    val labelOnly = run(aggLabel, fiLabel)
    assert(all.f1 > 0.5, s"aggregate clustering too weak: $all")
    assert(all.f1 >= labelOnly.f1 - 0.05,
      s"aggregated metrics (${all.f1}) should not lose to LABEL-only (${labelOnly.f1})")
  }

  test("clustering is deterministic") {
    val learnRows = ctx.goldRowCluster.keySet
    val (agg, fi) = repro.core.PipelineRunner.learnClusterAgg(
      pairFeats, ctx.goldRowCluster, learnRows, Seq("LABEL", "BOW"), 7)
    val edges1 = GreedyClusterer.scoreEdges(ctx.spark, pairDS, agg, fi)
    val a = GreedyClusterer.cluster(ctx.spark, edges1, comps)
    val b = GreedyClusterer.cluster(ctx.spark, edges1, comps)
    assert(a == b)
  }
}

/** Blocking as it was formulated with joins: memberships joined with their
  * block's count, and candidate pairs from a self-join on the block.
  */
private object JoinBlocking {
  def rowBlocks(spark: SparkSession, profiles: DataFrame): DataFrame = {
    import spark.implicits._
    def kept(memberships: DataFrame, cap: Int): DataFrame = {
      val df = memberships.groupBy($"block").agg(count(lit(1)) as "df")
      memberships.join(df.filter($"df" <= cap), "block").select($"rowKey", $"block")
    }
    val tok = udf((s: String) => TextSim.tokenize(s))
    kept(profiles.select($"rowKey", explode(tok($"normLabel")) as "block").distinct(),
         Blocking.maxTokenDf)
      .union(kept(profiles.select($"rowKey", concat(lit("L:"), $"normLabel") as "block"),
                  Blocking.maxLabelDf))
      .union(kept(profiles.select($"rowKey", concat(lit("P:"), substring($"normLabel", 1, 4)) as "block"),
                  Blocking.maxTokenDf))
  }

  def candidatePairs(spark: SparkSession, blocks: DataFrame): DataFrame =
    blocks.as("x").join(blocks.as("y"), col("x.block") === col("y.block"))
      .filter(col("x.rowKey") < col("y.rowKey"))
      .select(col("x.rowKey") as "a", col("y.rowKey") as "b")
      .distinct()
}
