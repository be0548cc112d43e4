package repro.perfbench

import repro.clustering.RowSimilarity
import repro.core.{ClassModels, ClassRun, PipelineRunner}
import repro.eval.Experiment
import repro.fusion.Voting
import repro.newdetect.EntitySimilarity
import repro.world.{CorpusConfig, Schemas, WorldConfig}

/** One benchmark workload: the class whose operation runs on the generated
  * inputs. Every workload shares the same inputs for a given seed.
  */
final case class Workload(name: String, cls: String)

object Workloads {
  val all: Seq[Workload] = Seq(
    Workload("song", Schemas.Song),
    Workload("settlement", Schemas.Settlement),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** The test-scale world of the unit tests, the same for every seed: it
    * stands in for the one reference KB (DBpedia in the paper) that every run
    * extends.
    */
  val world: WorldConfig = WorldConfig.test()

  /** Test-scale corpus; the seed draws every table, its rows and its noise. */
  def corpus(seed: Long): CorpusConfig = CorpusConfig.test(seed * 1000003L + 13)
}

/** One class's operation, driven two ways: learn the class's models on all
  * of its gold clusters (`Experiment.learnFold`, which computes and memoizes
  * the class's iteration-1 row profiles and pair features), then finish
  * iteration 1 on those memoized stage outputs: row clustering, entity
  * creation with VOTING fusion and new detection.
  */
object Ops {

  def goldClusters(ctx: Experiment.Ctx, cls: String): Set[Long] =
    ctx.goldClustersOf(cls).map(_.entityId).toSet

  /** The operation without tracing. */
  def plain(ctx: Experiment.Ctx, cls: String): ClassRun =
    iteration1(ctx, cls, Experiment.learnFold(ctx, cls, goldClusters(ctx, cls)))

  /** The same operation with a span around each call into a layer. The
    * corpus-wide matching that [[plain]] computes lazily inside its first
    * call is forced up front here, so that it is one span.
    */
  def traced(ctx: TracedCtx, cls: String, tr: Tracer): ClassRun = {
    tr.runId = cls
    tr.span("core.corpus") {
      val pipe = ctx.pipe
      tr.span("matching.types")(pipe.detectedTypes)
      tr.span("matching.label_attr")(pipe.labelCols)
      tr.timed("matching.table_class")(pipe.tableClassAndCands) { case (tc, cands) =>
        Map("tables_matched" -> tc.count().toDouble, "row_cands" -> cands.count().toDouble)
      }
      pipe.attrFeatures1
      tr.timed("learn.attr")(ctx.attrModel1)(_ => Map("examples" -> attrExamples(ctx, pipe.attrFeatures1)))
      ctx.corr1
    }
    val models = tr.span("core.learn_fold")(tracedLearnFold(ctx, cls, goldClusters(ctx, cls), tr))
    tr.span("core.iteration1")(iteration1(ctx, cls, models))
  }

  /** The clustering, fusion and detection calls of
    * `PipelineRunner.runIteration1`, made on the profiles and pair features
    * that learning has memoized in `ctx` instead of recomputing them. They
    * give the runner's outputs, and keep the operation to one profiling pass.
    */
  private def iteration1(ctx: Experiment.Ctx, cls: String, models: ClassModels): ClassRun = {
    import ctx.spark.implicits._
    val pipe = ctx.pipe
    val profiles = ctx.profiles1(cls)
    val (feats, comps) = ctx.pairStage1(cls)
    val clusters = pipe.cluster(feats, comps, models.clusterAgg,
                                RowSimilarity.featureIndices(models.clusterMetrics))
    val entities = pipe.entities(profiles.toDS(), clusters, Voting,
                                 PipelineRunner.fusionScores(pipe, ctx.corr1, Voting)).collect().toSeq
    val detections = pipe.detect(cls, entities.toDS(), models.detectAgg,
      EntitySimilarity.featureIndices(models.detectMetrics), models.tNew, models.tMatch)
    ClassRun(cls, ctx.corr1, clusters, entities, detections, profiles)
  }

  /** `Experiment.learnFold` with its default metrics and seed, spelled out
    * call by call. The fingerprint check holds it to the same outputs.
    */
  private def tracedLearnFold(ctx: TracedCtx, cls: String, learn: Set[Long], tr: Tracer): ClassModels = {
    val seed = 5L
    val clusterMetrics = RowSimilarity.metricNames
    val detectMetrics = EntitySimilarity.metricNames
    val pairFeats = ctx.goldPairs1(cls)
    val learnRows = ctx.goldRowCluster.filter { case (_, gid) => learn.contains(gid) }.keySet
    val (clusterAgg, _) = tr.timed("learn.cluster") {
      PipelineRunner.learnClusterAgg(pairFeats, ctx.goldRowCluster, learnRows, clusterMetrics, seed)
    }(_ => Map("examples" -> pairFeats.count(p =>
      learnRows.contains(p.a) && learnRows.contains(p.b) &&
      ctx.goldRowCluster.contains(p.a) && ctx.goldRowCluster.contains(p.b)).toDouble))
    val learnEnts = Experiment.goldEntities(ctx, cls, learn)
    val truth: Map[Long, Option[String]] = learn.toSeq.map { gid =>
      val c = ctx.gold.clusterById(gid)
      gid -> (if (c.isNew) None else Some(c.uri))
    }.toMap
    val (detectAgg, _, tn, tm) = tr.timed("learn.detect") {
      PipelineRunner.learnDetect(ctx.pipe, cls, learnEnts, truth, detectMetrics, seed + 1)
    }(_ => Map("examples" -> learnEnts.count(e => truth.contains(e.entityKey)).toDouble))
    ClassModels(clusterAgg, clusterMetrics, detectAgg, detectMetrics, tn, tm)
  }

  /** Attribute-learning examples: feature rows of the gold tables. */
  private def attrExamples(ctx: Experiment.Ctx, feats: org.apache.spark.sql.DataFrame): Double = {
    val tables = ctx.gold.tableIds
    feats.select("tableId").collect().count(r => tables.contains(r.getLong(0))).toDouble
  }
}
