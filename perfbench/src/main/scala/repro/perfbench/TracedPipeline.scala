package repro.perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import repro.clustering.{GreedyClusterer, PairFeature, RowProfile}
import repro.core.Pipeline
import repro.eval.Experiment
import repro.fusion.{Entity, FusionScoring}
import repro.kb.{KBInstanceLocal, KnowledgeBase}
import repro.learn.Aggregator
import repro.matching.{AttributeMatcher, PriorOutputs}
import repro.newdetect.{DetectedExisting, DetectedNew, Detection, Undecided}
import repro.world.{Corpus, Schemas, World}

object Heap {
  /** Driver heap in use, in MB, after a forced full collection. */
  def liveMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}

/** A [[Pipeline]] whose public stage functions are wrapped in spans. The
  * program's own orchestration ([[repro.core.PipelineRunner]]) calls these
  * overrides, so the spans sit at the layer boundaries of the real call
  * sequence. Results that come back as lazy Datasets are materialised inside
  * the span so that the span holds the layer's work.
  */
class TracedPipeline(spark: SparkSession, kb: KnowledgeBase, cells: DataFrame,
                     columns: DataFrame, propertyLabels: Map[String, Seq[String]],
                     tr: Tracer)
    extends Pipeline(spark, kb, cells, columns, propertyLabels) {
  import spark.implicits._

  private val pairSpanOf = new java.util.IdentityHashMap[Dataset[PairFeature], Int]()
  private val snapshotted = scala.collection.mutable.Set.empty[String]

  override def attrFeatures(prior: Option[PriorOutputs]): DataFrame = {
    val name = if (prior.isEmpty) "matching.attr_features.it1" else "matching.attr_features.it2"
    tr.timed(name)(super.attrFeatures(prior)) { f =>
      Map("rows" -> f.count().toDouble, "live_mb" -> Heap.liveMb())
    }
  }

  override def attrCorrespondences(feats: DataFrame, model: AttributeMatcher.AttrModel)
      : Map[Long, (String, Double)] =
    tr.timed("matching.attr_match")(super.attrCorrespondences(feats, model)) { m =>
      Map("correspondences" -> m.size.toDouble,
          "feature_columns" -> feats.select("tableId", "colId").distinct().count().toDouble)
    }

  override def profiles(cls: String, attrCorr: Map[Long, String]): Dataset[RowProfile] =
    tr.timed("clustering.profiles")(super.profiles(cls, attrCorr)) { p =>
      Map("rows" -> p.count().toDouble)
    }

  override def pairStage(profilesDS: Dataset[RowProfile]): (Dataset[PairFeature], Map[Long, Long]) = {
    val out = tr.timed("clustering.pairs")(super.pairStage(profilesDS)) { case (feats, comps) =>
      val sizes = comps.groupBy(_._2).values.map(_.size)
      Map("candidates" -> feats.count().toDouble,
          "components" -> sizes.size.toDouble,
          "largest_component" -> sizes.maxOption.getOrElse(0).toDouble,
          "live_mb" -> Heap.liveMb())
    }
    tr.lastId("clustering.pairs").foreach(pairSpanOf.put(out._1, _))
    out
  }

  /** Besides the cluster count, scores the candidate pairs once more after
    * the span to count positive edges, which are credited to the pair span
    * that produced them.
    */
  override def cluster(feats: Dataset[PairFeature], comps: Map[Long, Long],
                       agg: Aggregator, featIdx: Array[Int]): Map[Long, Long] =
    tr.timed("clustering.cluster")(super.cluster(feats, comps, agg, featIdx)) { m =>
      Option(pairSpanOf.get(feats)).foreach { id =>
        val positive = GreedyClusterer.scoreEdges(spark, feats, agg, featIdx).filter(_.score > 0).count()
        tr.attach(id, Map("positive" -> positive.toDouble))
      }
      Map("clusters" -> m.values.toSet.size.toDouble)
    }

  override def entities(profilesDS: Dataset[RowProfile], clusters: Map[Long, Long],
                        scoring: FusionScoring, colScores: Map[Long, Double]): Dataset[Entity] =
    if (!tr.enabled) super.entities(profilesDS, clusters, scoring, colScores)
    else {
      val local = tr.timed("fusion.entities") {
        super.entities(profilesDS, clusters, scoring, colScores).collect()
      } { es => Map("entities" -> es.length.toDouble, "facts" -> es.map(_.facts.size).sum.toDouble) }
      local.toSeq.toDS()
    }

  override def detect(cls: String, ents: Dataset[Entity], agg: Aggregator, featIdx: Array[Int],
                      tNew: Double, tMatch: Double): Map[Long, Detection] =
    tr.timed("newdetect.detect")(super.detect(cls, ents, agg, featIdx, tNew, tMatch)) { m =>
      Map("new" -> m.values.count(_ == DetectedNew).toDouble,
          "existing" -> m.values.count(_.isInstanceOf[DetectedExisting]).toDouble,
          "undecided" -> m.values.count(_ == Undecided).toDouble)
    }

  /** Only the first call per class builds the snapshot; later calls hit the
    * program's own cache and are not spans of their own.
    */
  override def detectSnapshot(cls: String): IndexedSeq[KBInstanceLocal] =
    if (!snapshotted.add(cls)) super.detectSnapshot(cls)
    else tr.timed("kb.snapshot")(super.detectSnapshot(cls))(s => Map("instances" -> s.size.toDouble))
}

/** An [[Experiment.Ctx]] whose pipeline is a [[TracedPipeline]]; the memoized
  * stage outputs of the context then also run through the spans.
  */
class TracedCtx(spark: SparkSession, world: World, corpus: Corpus, tr: Tracer)
    extends Experiment.Ctx(spark, world, corpus) {
  override val pipe: Pipeline = new TracedPipeline(spark, kb,
    corpus.cellsDF(spark).cache(), corpus.columnsDF(spark).cache(),
    Schemas.kbPropertyLabels, tr)
}
