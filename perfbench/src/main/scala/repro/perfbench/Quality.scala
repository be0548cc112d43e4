package repro.perfbench

import repro.core.ClassRun
import repro.eval.{Experiment, Metrics}

/** Quality of one class run against the class's gold clusters. The values
  * repeat exactly for a seed while the outputs do; they are printed, not
  * bounded, because they vary across seeds by more than any bound allows.
  */
object Quality {
  val names: Seq[String] = Seq("newinst_f1", "facts_f1")

  def of(ctx: Experiment.Ctx, run: ClassRun): Map[String, Double] = {
    val gold = ctx.goldClustersOf(run.cls).map(_.entityId).toSet
    Map(
      "newinst_f1" -> Metrics.newInstancesFound(run.entities, run.detections, ctx.rowGoldAll, ctx.gold, gold).f1,
      "facts_f1" -> Metrics.factsFound(run.entities, run.detections, ctx.rowGoldAll, ctx.gold, gold, ctx.schema).f1)
  }
}
