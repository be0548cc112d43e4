package repro.core

import repro.{RunFingerprint, SparkSpec, TestWorld}
import repro.eval.Experiment
import repro.fusion.Voting
import repro.world.{CorpusConfig, Schemas, SynthCorpus, SynthWorld, WorldConfig}

/** Outputs must not depend on how Spark partitions the stage data. */
class PartitionSpec extends SparkSpec {

  private def withShufflePartitions[A](n: Int)(body: => A): A = {
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    spark.conf.set(key, n.toLong)
    try body finally spark.conf.set(key, saved)
  }

  test("iteration-1 outputs are equal at 1, 7 and 64 shuffle partitions") {
    val cls = Schemas.Song
    val world = SynthWorld.generate(WorldConfig.test())
    // The corpus of the benchmark's seed 4, whose outputs moved with the
    // partition count before labels were numbered by content.
    val corpus = SynthCorpus.generate(world, CorpusConfig.test(4000025))
    def run(partitions: Int): Seq[String] = withShufflePartitions(partitions) {
      val ctx = new Experiment.Ctx(spark, world, corpus)
      val models = Experiment.learnFold(ctx, cls, ctx.goldClustersOf(cls).map(_.entityId).toSet)
      RunFingerprint.lines(Experiment.iteration1(ctx, cls, models, Voting))
    }
    val reference = run(1)
    Seq(7, 64).foreach { n =>
      val lines = run(n)
      val same = lines == reference
      assert(same, s"${(lines.toSet diff reference.toSet).size} of ${lines.size} lines differ at $n partitions vs 1")
    }
  }

  test("every stage output has at most one partition per core") {
    val ctx = TestWorld.ctx
    val pipe = ctx.pipe
    val cls = Schemas.GFPlayer
    val outputs = Seq(
      "types" -> pipe.detectedTypes,
      "label columns" -> pipe.labelCols,
      "table class" -> pipe.tableClass,
      "candidates" -> pipe.rowCands,
      "attrFeatures1" -> pipe.attrFeatures1,
      "profiles" -> pipe.profiles(cls, ctx.corr1.map { case (k, v) => k -> v._1 }).toDF(),
      "pair features" -> ctx.pairStage1(cls)._1.toDF())
    val cores = spark.sparkContext.defaultParallelism
    outputs.foreach { case (name, df) =>
      val n = df.rdd.getNumPartitions
      assert(n <= cores, s"$name has $n partitions, $cores cores")
    }
  }
}
