package repro.eval

import repro.{SparkSpec, TestWorld}
import repro.core.PipelineRunner
import repro.fusion.Voting
import repro.newdetect.{DetectedExisting, DetectedNew, Detection, EntitySimilarity, NewDetector}
import repro.world.Schemas

/** Test-scale versions of the gold-standard evaluations (paper Tables 8-10):
  * new detection on gold clusters, facts-found with perfect upstream
  * components. The bench suites run the same protocols at bench scale with
  * cross validation.
  */
class GoldEvalSpec extends SparkSpec {
  lazy val ctx = TestWorld.ctx

  test("gold entities are created for every gold cluster with profile rows") {
    Schemas.mainClasses.foreach { cls =>
      val ids = ctx.goldClustersOf(cls).map(_.entityId).toSet
      val ents = Experiment.goldEntities(ctx, cls, ids)
      assert(ents.size > ids.size / 2, s"$cls: only ${ents.size} of ${ids.size} entities built")
      assert(ents.forall(_.labels.nonEmpty))
    }
  }

  /** GF-Player gold entities and a detection model learned on folds 0 and 1. */
  private lazy val gfDetect = {
    val cls = Schemas.GFPlayer
    val all = ctx.goldClustersOf(cls).map(_.entityId).toSet
    val ents = Experiment.goldEntities(ctx, cls, all)
    val learn = (ctx.folds(0) ++ ctx.folds(1)).toSet.intersect(all)
    val truth = learn.map(gid => gid -> ctx.gold.clusterById(gid).instance).toMap
    val model = PipelineRunner.learnDetect(
      ctx.pipe, cls, ents.filter(e => learn.contains(e.entityKey)), truth,
      EntitySimilarity.metricNames, 5)
    (cls, all, ents, model)
  }

  test("new detection on gold clusters beats the always-new baseline (Table 8 protocol)") {
    val (cls, all, ents, (agg, fi, tn, tm)) = gfDetect
    val test = ctx.folds(2).toSet.intersect(all)
    val selector = ctx.pipe.selector(cls)
    val results = ents.filter(e => test.contains(e.entityKey)).map { e =>
      e.entityKey -> NewDetector.detect(selector.features(e), agg, fi, tn, tm)
    }
    val ev = Metrics.detectionEval(results, ctx.gold)
    // always-new baseline accuracy = share of new clusters in the test fold
    val baseline = test.count(g => ctx.gold.clusterById(g).isNew).toDouble / test.size
    assert(ev.accuracy > baseline,
      s"accuracy ${ev.accuracy} must beat always-new baseline $baseline")
    assert(ev.accuracy > 0.5, s"accuracy ${ev.accuracy}")
  }

  test("Pipeline.detect in Spark tasks equals the selector and the rule on the driver") {
    import spark.implicits._
    val (cls, _, ents, (agg, fi, tn, tm)) = gfDetect
    val selector = ctx.pipe.selector(cls)
    val local = ents.map(e => e.entityKey -> NewDetector.detect(selector.features(e), agg, fi, tn, tm)).toMap
    val dets = ctx.pipe.detect(cls, ents.toDS(), agg, fi, tn, tm)
    assert(dets == local)
    assert(dets.values.exists(_ == DetectedNew), "some entity must be new")
    assert(dets.values.exists(_.isInstanceOf[DetectedExisting]), "some entity must be existing")
  }

  test("facts found with perfect clustering and detection is high (Table 10 GS/GS)") {
    val cls = Schemas.Settlement
    val all = ctx.goldClustersOf(cls).map(_.entityId).toSet
    val ents = Experiment.goldEntities(ctx, cls, all, Voting)
    val perfect: Map[Long, Detection] = all.map { gid =>
      gid -> ctx.gold.clusterById(gid).instance.fold[Detection](DetectedNew)(DetectedExisting(_, 1.0))
    }.toMap
    val prf = Metrics.factsFound(ents, perfect, ctx.rowGoldAll, ctx.gold, all, ctx.schema)
    assert(prf.f1 > 0.5, s"GS/GS facts F1 ${prf.f1} (paper: 0.98 for Settlement)")
    assert(prf.precision > 0.6, s"GS/GS facts precision ${prf.precision}")
  }

  test("fold models learn sane thresholds (tNew <= tMatch)") {
    val cls = Schemas.Song
    val all = ctx.goldClustersOf(cls).map(_.entityId).toSet
    val learn = (ctx.folds(0) ++ ctx.folds(1)).toSet.intersect(all)
    val models = Experiment.learnFold(ctx, cls, learn)
    assert(models.tNew <= models.tMatch)
    assert(models.clusterMetrics == repro.clustering.RowSimilarity.metricNames)
  }
}
