package jobs

import repro.eval.Tables

/** spark-submit entrypoint: computes and prints the paper's Tables 1-12 at
  * one scale, as the bench suites print them. Usage:
  *   spark-submit --class jobs.Reproduce repro.jar <test|bench>
  */
object Reproduce {
  def main(args: Array[String]): Unit = {
    val ctx = JobSetup.context("reproduce", args.headOption.getOrElse(""),
      "spark-submit --class jobs.Reproduce repro.jar <test|bench>")
    new Tables(ctx).printed.foreach(_.print())
    ctx.spark.stop()
  }
}
