package jobs

import org.apache.spark.sql.SparkSession
import repro.eval.Experiment
import repro.world.{CorpusConfig, WorldConfig}

/** Start-up shared by the spark-submit jobs: scale choice and context. */
object JobSetup {

  /** World and corpus configurations of a scale, "test" or "bench". */
  def configs(scale: String): Option[(WorldConfig, CorpusConfig)] = scale match {
    case "test"  => Some((WorldConfig.test(), CorpusConfig.test()))
    case "bench" => Some((WorldConfig.bench(), CorpusConfig.bench()))
    case _       => None
  }

  /** The experiment context of a scale in a new SparkSession, logging at
    * WARN. An unknown scale exits with status 2 and the job's usage line.
    */
  def context(appName: String, scale: String, usage: String): Experiment.Ctx =
    configs(scale) match {
      case Some((w, c)) =>
        val spark = SparkSession.builder.master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
          .appName(appName).getOrCreate()
        spark.sparkContext.setLogLevel("WARN")
        Experiment.build(spark, w, c)
      case None =>
        Console.err.println(s"unknown scale '$scale' (expected test or bench)\nUsage: $usage")
        sys.exit(2)
    }
}
