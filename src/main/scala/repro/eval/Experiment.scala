package repro.eval

import org.apache.spark.scheduler.{SparkListener, SparkListenerApplicationEnd}
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.clustering.{PairFeature, RowProfile, RowSimilarity}
import repro.core.{Pipeline, PipelineRunner}
import repro.fusion.{Entity, EntityCreation, FusionScoring, Voting}
import repro.kb.KnowledgeBase
import repro.matching.{AttributeMatcher, Keys}
import repro.newdetect.EntitySimilarity
import repro.world._

/** Shared harness for gold-standard experiments (tests and benches): builds
  * the world / corpus / pipeline, caches per-class stage outputs, learns
  * per-fold models, and runs the two-iteration system.
  */
object Experiment {

  /** Drops a session's cached relations when its application ends. Spark
    * keeps a stopped session reachable (from pooled exchange threads and
    * executor session state that outlive the context), and with it every
    * cached local relation, rows included: a process that sets up several
    * sessions in turn would otherwise keep each one's cells, columns and KB.
    */
  private final class ClearCacheOnEnd(spark: SparkSession) extends SparkListener {
    override def onApplicationEnd(end: SparkListenerApplicationEnd): Unit = spark.catalog.clearCache()
  }

  /** One generated setup with memoized stage outputs. */
  class Ctx(val spark: SparkSession, val world: World, val corpus: Corpus) {
    Keys.requirePackable(corpus.cells.map(_.rowId),
                         corpus.columns.map(_.colId) ++ corpus.cells.map(_.colId))
    val kb: KnowledgeBase = world.knowledgeBase(spark)
    val pipe: Pipeline = new Pipeline(spark, kb,
      corpus.cellsDF(spark).cache(), corpus.columnsDF(spark).cache(),
      Schemas.kbPropertyLabels)
    spark.sparkContext.addSparkListener(new ClearCacheOnEnd(spark))
    val gold: GoldStandard = corpus.gold
    val schema: Map[String, repro.core.DataType] = kb.propertyTypes

    /** Gold attribute annotations keyed by (tableId, colId). */
    val goldAttrMap: Map[(Long, Int), String] =
      gold.attrs.map(a => (a.tableId, a.colId) -> a.property).toMap
    /** Gold cluster per rowKey (gold tables only — the clustering eval). */
    val goldRowCluster: Map[Long, Long] =
      gold.rows.map(r => Keys.rowKey(r.tableId, r.rowId) -> r.entityId).toMap

    /** Generation truth per rowKey over the whole corpus: the world entity
      * each row describes (the large-scale evaluation, paper Table 11).
      */
    lazy val rowTruthEntity: Map[Long, Long] =
      corpus.rowTruth.map(rt => Keys.rowKey(rt.tableId, rt.rowId) -> rt.entityId).toMap
    /** Gold cluster per rowKey over the WHOLE corpus: bulk-table rows of a
      * gold entity also map to its cluster. Used by the entity-level
      * evaluations — a returned cluster may legitimately absorb bulk rows of
      * the same instance, which the paper's gold-only runs could not see.
      */
    lazy val rowGoldAll: Map[Long, Long] =
      rowTruthEntity.filter { case (_, e) => gold.clusterById.contains(e) }
    def goldClustersOf(cls: String): Seq[GoldCluster] = gold.clusters.filter(_.cls == cls)

    /** Rows of the tables matched to a class (paper Table 11's total rows). */
    def classRows(cls: String): Long =
      pipe.cells.join(pipe.classTables(cls), "tableId").select("tableId", "rowId").distinct().count()

    /** Iteration-1 attribute model learned on all gold tables. */
    lazy val attrModel1: AttributeMatcher.AttrModel =
      AttributeMatcher.learn(spark, pipe.attrFeatures1, goldAttrMap, gold.tableIds)
    lazy val corr1: Map[Long, (String, Double)] =
      pipe.attrCorrespondences(pipe.attrFeatures1, attrModel1)

    private val profDSCache = scala.collection.mutable.Map.empty[String, Dataset[RowProfile]]
    private val profCache = scala.collection.mutable.Map.empty[String, Seq[RowProfile]]
    private val pairCache = scala.collection.mutable.Map.empty[String, (Dataset[PairFeature], Map[Long, Long])]
    private val goldPairCache = scala.collection.mutable.Map.empty[String, Seq[PairFeature]]

    /** Iteration-1 profiles of a class (materialized Dataset; memoized).
      * Stages read this Dataset, not a Dataset rebuilt from [[profiles1]],
      * which would ship every profile inside each task.
      */
    def profilesDS1(cls: String): Dataset[RowProfile] =
      profDSCache.getOrElseUpdate(cls, pipe.profiles(cls, corr1.map { case (k, v) => k -> v._1 }))

    /** Iteration-1 profiles of a class (collected; memoized). */
    def profiles1(cls: String): Seq[RowProfile] =
      profCache.getOrElseUpdate(cls, profilesDS1(cls).collect().toSeq)

    /** Iteration-1 pair features (materialized Dataset) + components (memoized). */
    def pairStage1(cls: String): (Dataset[PairFeature], Map[Long, Long]) =
      pairCache.getOrElseUpdate(cls, pipe.pairStage(profilesDS1(cls)))

    /** Iteration-1 pair features restricted to gold rows (collected — this
      * is the learning input and stays small), sorted by pair, as learning
      * depends on example order.
      */
    def goldPairs1(cls: String): Seq[PairFeature] =
      goldPairCache.getOrElseUpdate(cls, {
        val (pf, _) = pairStage1(cls)
        val goldRows = goldRowCluster.keySet
        pf.filter(p => goldRows.contains(p.a) && goldRows.contains(p.b)).collect().toSeq
          .sortBy(p => (p.a, p.b))
      })

    /** 3-fold split of gold clusters (homonym-aware). */
    lazy val folds: Seq[Seq[Long]] = gold.folds(world)
  }

  def build(spark: SparkSession, worldCfg: WorldConfig, corpusCfg: CorpusConfig): Ctx = {
    val world = SynthWorld.generate(worldCfg)
    val corpus = SynthCorpus.generate(world, corpusCfg)
    new Ctx(spark, world, corpus)
  }

  /** Entities created directly from gold clusters (the paper's "GS
    * clustering" runs and the new-detection learning input).
    */
  def goldEntities(ctx: Ctx, cls: String, clusterIds: Set[Long],
                   scoring: FusionScoring = Voting,
                   colScores: Map[Long, Double] = Map.empty): Seq[Entity] = {
    val profByRow = ctx.profiles1(cls).map(p => p.rowKey -> p).toMap
    ctx.gold.rows.filter(r => clusterIds.contains(r.entityId))
      .groupBy(_.entityId).toSeq.sortBy(_._1).flatMap { case (eid, rows) =>
        val profs = rows.flatMap(r => profByRow.get(Keys.rowKey(r.tableId, r.rowId)))
        if (profs.isEmpty) None
        else Some(EntityCreation.fromRows(eid, profs, ctx.schema, scoring, colScores))
      }
  }

  /** Learn per-fold models for a class: clustering aggregator on the learn
    * folds' row pairs, new-detection aggregator + thresholds on the learn
    * folds' gold entities.
    */
  def learnFold(ctx: Ctx, cls: String, learnClusters: Set[Long],
                clusterMetrics: Seq[String] = RowSimilarity.metricNames,
                detectMetrics: Seq[String] = EntitySimilarity.metricNames,
                seed: Long = 5): repro.core.ClassModels = {
    val pairFeats = ctx.goldPairs1(cls)
    val learnRows = ctx.goldRowCluster.filter { case (_, gid) => learnClusters.contains(gid) }.keySet
    val (clusterAgg, _) = PipelineRunner.learnClusterAgg(
      pairFeats, ctx.goldRowCluster, learnRows, clusterMetrics, seed)

    val learnEnts = goldEntities(ctx, cls, learnClusters)
    val truth = learnClusters.map(gid => gid -> ctx.gold.clusterById(gid).instance).toMap
    val (detectAgg, _, tn, tm) = PipelineRunner.learnDetect(
      ctx.pipe, cls, learnEnts, truth, detectMetrics, seed + 1)
    repro.core.ClassModels(clusterAgg, clusterMetrics, detectAgg, detectMetrics, tn, tm)
  }

  /** Iteration 1 for a class on the context's memoized correspondences,
    * profiles and pair stage.
    */
  def iteration1(ctx: Ctx, cls: String, models: repro.core.ClassModels,
                 scoring: FusionScoring): repro.core.ClassRun =
    PipelineRunner.runIteration(ctx.pipe, cls, ctx.corr1, ctx.profilesDS1(cls),
                                ctx.pairStage1(cls), models, scoring)

  /** Full two-iteration system run for one class: iteration 1 with the
    * iteration-1 attribute model, then learn the iteration-2 attribute model
    * (now including the duplicate-based matchers) on the gold annotations,
    * and match with it on the same features for iteration 2.
    */
  def fullRun(ctx: Ctx, cls: String, models: repro.core.ClassModels,
              scoring: FusionScoring = Voting): repro.core.ClassRun = {
    val pipe = ctx.pipe
    val prior = PipelineRunner.priorOf(Seq(iteration1(ctx, cls, models, scoring)))
    val feats2 = pipe.attrFeatures(Some(prior))
    val attr2 = AttributeMatcher.learn(ctx.spark, feats2, ctx.goldAttrMap, ctx.gold.tableIds)
    val corr2 = pipe.attrCorrespondences(feats2, attr2)
    val prof2 = pipe.profiles(cls, corr2.map { case (k, v) => k -> v._1 })
    PipelineRunner.runIteration(pipe, cls, corr2, prof2, pipe.pairStage(prof2), models, scoring)
  }
}
