package repro.core

import repro.{RunFingerprint, SparkSpec, TestWorld}
import repro.eval.{Experiment, Metrics}
import repro.fusion.Voting
import repro.newdetect.DetectedNew
import repro.world.Schemas

/** End-to-end smoke test: generate the world, run the full two-iteration
  * pipeline for one class, and sanity-check every stage output. Detailed
  * per-stage assertions live in the per-module suites.
  */
class SmokeSpec extends SparkSpec {
  lazy val ctx = TestWorld.ctx
  private val cls = Schemas.GFPlayer
  /** Models learned on gold folds 0 and 1; fold 2 is held out. */
  private lazy val models = {
    val learn = (ctx.folds(0) ++ ctx.folds(1)).toSet
      .intersect(ctx.goldClustersOf(cls).map(_.entityId).toSet)
    Experiment.learnFold(ctx, cls, learn)
  }

  test("world generation produces entities, a KB and a corpus") {
    assert(ctx.world.entities.nonEmpty)
    assert(ctx.kb.instancesSeq.nonEmpty)
    assert(ctx.corpus.cells.nonEmpty)
    assert(ctx.gold.clusters.nonEmpty)
  }

  test("iteration 1 on the memoized stage outputs equals iteration 1 on fresh ones") {
    val pipe = ctx.pipe
    val memo = Experiment.iteration1(ctx, cls, models, Voting)
    val profiles = pipe.profiles(cls, ctx.corr1.map { case (k, v) => k -> v._1 })
    val fresh = PipelineRunner.runIteration(pipe, cls, ctx.corr1, profiles,
                                            pipe.pairStage(profiles), models, Voting)
    assert(RunFingerprint.lines(memo) == RunFingerprint.lines(fresh))
    assert(memo.profiles.sortBy(_.rowKey) == fresh.profiles.sortBy(_.rowKey))
  }

  test("full pipeline run on GF-Player produces clusters, entities and detections") {
    val run = Experiment.fullRun(ctx, cls, models)
    // The outputs pin: a change that alters outputs on purpose updates it.
    assert(RunFingerprint.sha256(run) ==
      "7983992b207d85b206c2601598ae8da863733cffadd33397b0b2aef851195c13")

    assert(run.clusters.nonEmpty, "clusters must not be empty")
    assert(run.entities.nonEmpty, "entities must not be empty")
    assert(run.detections.nonEmpty, "detections must not be empty")
    assert(run.entities.exists(_.facts.nonEmpty), "some entity must carry facts")
    assert(run.detections.values.exists(_ == DetectedNew), "some entity must be new")

    val testClusters = ctx.folds(2).toSet
      .intersect(ctx.goldClustersOf(cls).map(_.entityId).toSet)
    val prf = Metrics.newInstancesFound(run.entities, run.detections,
      ctx.rowGoldAll, ctx.gold, testClusters)
    // loose smoke bound; the bench asserts the paper-shaped numbers
    assert(prf.f1 > 0.2, s"new-instances F1 too low: $prf")
  }
}
