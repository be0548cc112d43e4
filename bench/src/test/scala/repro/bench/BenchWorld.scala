package repro.bench

import repro.SparkSpec
import repro.eval.{Experiment, Tables}
import repro.world.{CorpusConfig, WorldConfig}

/** The paper tables on the bench-scale world, shared by every bench suite
  * (each table and the runs behind it are computed once).
  */
object BenchWorld {
  lazy val tables: Tables =
    new Tables(Experiment.build(SparkSpec.shared, WorldConfig.bench(), CorpusConfig.bench()))
}
