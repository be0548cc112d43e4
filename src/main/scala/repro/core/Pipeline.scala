package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.exchange.{BroadcastExchangeExec, ReusedExchangeExec}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.expressions.Window
import repro.clustering._
import repro.fusion._
import repro.kb.{KBInstanceLocal, KnowledgeBase}
import repro.learn.{Aggregator, CombinedAgg}
import repro.matching._
import repro.newdetect._

/** Shared stage outputs over one table corpus (paper Figure 1). The early
  * stages (type detection, label attribute, table-to-class) are corpus-wide;
  * everything downstream runs per class.
  */
class Pipeline(val spark: SparkSession, val kb: KnowledgeBase,
               val cells: DataFrame, val columns: DataFrame,
               val propertyLabels: Map[String, Seq[String]]) {
  import spark.implicits._
  import Pipeline.{materialize, perCoreShuffles}

  // Every stage output goes through Pipeline.materialize.
  lazy val detectedTypes: DataFrame = materialize(TypeDetector.detect(spark, cells))
  lazy val labelCols: DataFrame =
    materialize(LabelAttributeDetector.detect(spark, cells, detectedTypes))
  /** Table classes and row candidates; the matcher materializes the
    * candidates itself, as it scores classes on them.
    */
  lazy val tableClassAndCands: (DataFrame, DataFrame) = {
    val (tc, cands) = TableClassMatcher.matchClasses(spark, cells, labelCols, kb)
    (materialize(tc), cands)
  }
  def tableClass: DataFrame = tableClassAndCands._1
  def rowCands: DataFrame = tableClassAndCands._2

  /** Tables assigned to a class. */
  def classTables(cls: String): DataFrame =
    tableClass.filter($"cls" === cls).select($"tableId")

  /** Attribute matcher features for a given iteration's prior outputs. */
  def attrFeatures(prior: Option[PriorOutputs]): DataFrame =
    materialize(AttributeMatcher.features(spark, cells, columns, detectedTypes, labelCols,
                                          tableClass, kb, propertyLabels, prior))

  /** Iteration-1 features are prior-free and shared across folds/classes. */
  lazy val attrFeatures1: DataFrame = attrFeatures(None)

  /** Apply a learned attribute model; returns colKey -> (property, score). */
  def attrCorrespondences(feats: DataFrame, model: AttributeMatcher.AttrModel): Map[Long, (String, Double)] =
    perCoreShuffles(spark) {
      AttributeMatcher.matchAttributes(spark, feats, model).collect()
        .map(r => Keys.colKey(r.getLong(0), r.getInt(1)) -> (r.getString(3), r.getDouble(4)))
        .toMap
    }

  /** Row profiles for one class under a given attribute mapping. */
  def profiles(cls: String, attrCorr: Map[Long, String]): Dataset[RowProfile] =
    perCoreShuffles(spark) {
      materialize(RowProfiles.build(spark, cls, cells, labelCols, classTables(cls), attrCorr,
                                    rowCands, kb))
    }

  /** Blocking, pair features, components for one class's profiles. */
  def pairStage(profilesDS: Dataset[RowProfile]):
      (Dataset[PairFeature], Map[Long, Long]) = perCoreShuffles(spark) {
    val profDF = profilesDS.toDF()
    val blocks = materialize(Blocking.rowBlocks(spark, profDF))
    val pairs = Blocking.candidatePairs(spark, blocks)
    val feats = materialize(PairFeatures.compute(spark, profilesDS, pairs, kb.propertyTypes))
    val blockSeq = blocks.collect().map(r => (r.getLong(0), r.getString(1))).toSeq
    val allRows = profDF.select($"rowKey").as[Long].collect().toSeq
    val comps = Blocking.components(blockSeq, allRows)
    (feats, comps)
  }

  /** Cluster one class given scored pair features. */
  def cluster(feats: Dataset[PairFeature], comps: Map[Long, Long],
              agg: Aggregator, featIdx: Array[Int]): Map[Long, Long] = perCoreShuffles(spark) {
    val edges = GreedyClusterer.scoreEdges(spark, feats, agg, featIdx)
    GreedyClusterer.cluster(spark, edges, comps)
  }

  /** Column trust for KBT fusion: fraction of a column's cells equal to the
    * KB fact of the row's best label-candidate instance.
    */
  def columnTrust(attrCorr: Map[Long, String]): Map[Long, Double] = perCoreShuffles(spark) {
    val top1 = rowCands.withColumn("rk", row_number().over(
        Window.partitionBy($"tableId", $"rowId").orderBy($"labelSim".desc, $"uri")))
      .filter($"rk" === 1).select($"tableId", $"rowId", $"uri")
    val mapped = cells.join(AttributeMatcher.mappingDF(spark, attrCorr), Seq("tableId", "colId"))
    Duplicates.kbFacts(mapped, top1, kb)
      .groupBy($"tableId", $"colId").agg(avg($"equal".cast("double")))
      .collect().map(r => Keys.colKey(r.getLong(0), r.getInt(1)) -> r.getDouble(2)).toMap
  }

  /** Entity creation for one class. */
  def entities(profilesDS: Dataset[RowProfile], clusters: Map[Long, Long],
               scoring: FusionScoring, colScores: Map[Long, Double]): Dataset[Entity] = {
    EntityCreation.create(spark, profilesDS, clusters, kb.propertyTypes, scoring, colScores)
  }

  /** New detection for one class; returns entityKey -> Detection. */
  def detect(cls: String, ents: Dataset[Entity], agg: Aggregator, featIdx: Array[Int],
             tNew: Double, tMatch: Double): Map[Long, Detection] = perCoreShuffles(spark) {
    val selB = spark.sparkContext.broadcast(selector(cls))
    try ents.rdd.map { e =>
      e.entityKey -> NewDetector.detect(selB.value.features(e), agg, featIdx, tNew, tMatch)
    }.collect().toMap
    finally selB.destroy()
  }

  private val selectors = scala.collection.mutable.Map.empty[String, CandidateSelector]
  /** The class's candidate selector over [[detectSnapshot]], built once per
    * class.
    */
  def selector(cls: String): CandidateSelector =
    selectors.getOrElseUpdate(cls,
      new CandidateSelector(detectSnapshot(cls), kb.propertyTypes, kb.classParents))

  /** Candidate instances for new detection: the entity's class plus sibling
    * classes sharing a parent (the paper requires candidates to be "of the
    * class of the created entity or share one parent class").
    */
  def detectSnapshot(cls: String): IndexedSeq[KBInstanceLocal] = {
    val parents = kb.classParents.getOrElse(cls, Nil).toSet
    val related = kb.classParents.collect {
      case (c, ps) if c == cls || ps.exists(parents.contains) => c
    }.toSeq
    related.flatMap(kb.localSnapshot).toIndexedSeq
  }
}

object Pipeline {

  /** Materializes a stage output: one partition per core, checkpointed
    * locally. The stages stack many joins and self-joins, and without cutting
    * the lineage Catalyst re-analyzes an ever larger plan on every later
    * action. AQE does not coalesce the last stage of a checkpointed plan, so
    * without the coalesce the output keeps spark.sql.shuffle.partitions
    * partitions of a few rows each, and every later scan of it runs that many
    * tasks. Stage outputs hold thousands of rows, not millions: task
    * overhead, not data, sets their cost.
    *
    * Nothing runs the checkpointed plan again, so the broadcast relations
    * its joins built are destroyed here. Left to Spark's ContextCleaner they
    * would stay on the driver until a garbage collection happens to find
    * them, about 1 MB each even for a join on a few long keys.
    */
  def materialize[T](ds: Dataset[T]): Dataset[T] = perCoreShuffles(ds.sparkSession) {
    val in = ds.coalesce(ds.sparkSession.sparkContext.defaultParallelism)
    val out = in.localCheckpoint()
    releaseBroadcasts(in.queryExecution.executedPlan)
    out
  }

  private val ShufflePartitions = "spark.sql.shuffle.partitions"

  /** Runs a stage with its shuffles planned at one partition per core: while
    * `body` runs, spark.sql.shuffle.partitions is the smaller of the
    * session's value and the default parallelism. Afterwards, also when
    * `body` throws, the session has exactly the setting it had before, or
    * none if it had none. A query fixes its shuffle partition count when it
    * is planned, so a lazy Dataset that `body` returns is planned at the
    * session's value by whoever runs it.
    *
    * Stage data is small (see [[materialize]]), and at 200 partitions the
    * bypass shuffle writer opens one file and one compression stream per
    * partition in every map task. The setting belongs to the session, not
    * to the thread; stages run one at a time from one thread, so no other
    * query is planned while it holds.
    */
  private[core] def perCoreShuffles[A](spark: SparkSession)(body: => A): A = {
    val conf = spark.conf
    val saved = conf.getAll.get(ShufflePartitions)
    conf.set(ShufflePartitions,
             math.min(conf.get(ShufflePartitions).toLong, spark.sparkContext.defaultParallelism.toLong))
    try body
    finally saved match {
      case Some(v) => conf.set(ShufflePartitions, v)
      case None => conf.unset(ShufflePartitions)
    }
  }

  /** Destroys the broadcast relations that an executed plan has built,
    * including those inside adaptive query stages; returns them. Exchanges
    * that never ran are left alone.
    */
  private[core] def releaseBroadcasts(plan: SparkPlan): Seq[Broadcast[Any]] = {
    val built = scala.collection.mutable.LinkedHashMap.empty[Long, Broadcast[Any]]
    def walk(p: SparkPlan): Unit = {
      p match {
        case a: AdaptiveSparkPlanExec => walk(a.executedPlan)
        case s: QueryStageExec => walk(s.plan)
        case r: ReusedExchangeExec => walk(r.child)
        case b: BroadcastExchangeExec =>
          b.completionFuture.value.flatMap(_.toOption).foreach(bc => built.getOrElseUpdate(bc.id, bc))
        case _ =>
      }
      p.children.foreach(walk)
    }
    walk(plan)
    built.values.foreach(_.destroy())
    built.values.toSeq
  }
}

/** Models learned for one class (aggregators for clustering and detection,
  * detection thresholds, metric subsets in use).
  */
case class ClassModels(clusterAgg: Aggregator, clusterMetrics: Seq[String],
                       detectAgg: Aggregator, detectMetrics: Seq[String],
                       tNew: Double, tMatch: Double)

/** One class's end-of-pipeline outputs. */
case class ClassRun(cls: String, attrCorr: Map[Long, (String, Double)],
                    clusters: Map[Long, Long],
                    entities: Seq[Entity], detections: Map[Long, Detection],
                    profiles: Seq[RowProfile])

object PipelineRunner {

  /** Learn the clustering aggregator from gold pairs. Pairs are labeled by
    * shared gold cluster; only rows of `learnRows` participate.
    */
  def learnClusterAgg(feats: Seq[PairFeature], goldCluster: Map[Long, Long],
                      learnRows: Set[Long], metrics: Seq[String], seed: Long): (CombinedAgg, Array[Int]) = {
    val usable = feats.filter(p => learnRows.contains(p.a) && learnRows.contains(p.b) &&
                                   goldCluster.contains(p.a) && goldCluster.contains(p.b))
    RowSimilarity.train(usable.map(_.features.toArray),
                        usable.map(p => goldCluster(p.a) == goldCluster(p.b)), metrics, seed)
  }

  /** Learn the new-detection aggregator + thresholds from gold entities. */
  def learnDetect(pipe: Pipeline, cls: String, ents: Seq[Entity],
                  truth: Map[Long, Option[String]], metrics: Seq[String],
                  seed: Long): (CombinedAgg, Array[Int], Double, Double) = {
    val selector = pipe.selector(cls)
    learnDetect(ents.map(e => e.entityKey -> selector.features(e)), truth, metrics, seed)
  }

  /** Learn the new-detection aggregator + thresholds from the candidate
    * features of gold entities (entityKey -> features, in entity order, as
    * learning depends on example order). Entities without a truth entry are
    * skipped.
    */
  def learnDetect(cands: Seq[(Long, Seq[(String, Array[Double])])],
                  truth: Map[Long, Option[String]], metrics: Seq[String],
                  seed: Long): (CombinedAgg, Array[Int], Double, Double) = {
    val learn = cands.flatMap { case (k, fs) => truth.get(k).map(t => (k, fs, t)) }
    val (agg, fi) = EntitySimilarity.train(
      learn.flatMap { case (_, fs, _) => fs.map(_._2) },
      learn.flatMap { case (_, fs, t) => fs.map { case (uri, _) => t.contains(uri) } },
      metrics, seed)
    val (tn, tm) = NewDetector.learnThresholds(learn.map { case (k, fs, t) =>
      (k, NewDetector.scores(fs, agg, fi), t)
    })
    (agg, fi, tn, tm)
  }

  /** One pipeline iteration for a class on this iteration's correspondences,
    * row profiles and pair stage: clustering, entity creation and new
    * detection. Iterations differ only in these inputs: iteration 2 matches
    * its correspondences on features fed by [[priorOf]] iteration 1's runs.
    */
  def runIteration(pipe: Pipeline, cls: String, corr: Map[Long, (String, Double)],
                   profiles: Dataset[RowProfile],
                   pairStage: (Dataset[PairFeature], Map[Long, Long]),
                   models: ClassModels, scoring: FusionScoring): ClassRun = {
    import pipe.spark.implicits._
    val (feats, comps) = pairStage
    val clusters = pipe.cluster(feats, comps,
      models.clusterAgg, RowSimilarity.featureIndices(models.clusterMetrics))
    val ents = pipe.entities(profiles, clusters, scoring,
                             fusionScores(pipe, corr, scoring)).collect().toSeq
    val dets = pipe.detect(cls, ents.toDS(), models.detectAgg,
      EntitySimilarity.featureIndices(models.detectMetrics), models.tNew, models.tMatch)
    ClassRun(cls, corr, clusters, ents, dets, profiles.collect().toSeq)
  }

  /** The outputs of class runs that feed the duplicate-based matchers of the
    * next iteration: the union of their correspondences and clusters, and the
    * rows of every entity detected as an existing instance.
    */
  def priorOf(runs: Seq[ClassRun]): PriorOutputs = PriorOutputs(
    prelimAttr = runs.flatMap(_.attrCorr.map { case (k, v) => k -> v._1 }).toMap,
    rowCluster = runs.flatMap(_.clusters).toMap,
    rowInstance = runs.flatMap { run =>
      run.entities.flatMap { e =>
        run.detections.get(e.entityKey) match {
          case Some(DetectedExisting(uri, _)) => e.rowKeys.map(_ -> uri)
          case _ => Nil
        }
      }
    }.toMap)

  /** Column weights for the configured fusion scoring approach. */
  def fusionScores(pipe: Pipeline, corr: Map[Long, (String, Double)],
                   scoring: FusionScoring): Map[Long, Double] = scoring match {
    case Voting   => Map.empty
    case Matching => corr.map { case (k, v) => k -> v._2 }
    case KBT      => pipe.columnTrust(corr.map { case (k, v) => k -> v._1 })
  }
}
