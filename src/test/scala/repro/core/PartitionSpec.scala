package repro.core

import org.apache.spark.SparkException
import repro.{RunFingerprint, SparkSpec, TestWorld}
import repro.eval.Experiment
import repro.fusion.Voting
import repro.world.{CorpusConfig, Schemas, SynthCorpus, SynthWorld, WorldConfig}

/** Outputs must not depend on how Spark partitions the stage data. */
class PartitionSpec extends SparkSpec {

  private def withConf[A](key: String, value: String)(body: => A): A = {
    val saved = spark.conf.get(key)
    spark.conf.set(key, value)
    try body finally spark.conf.set(key, saved)
  }

  test("iteration-1 outputs are equal at 1, 7 and 64 shuffle partitions") {
    val cls = Schemas.Song
    val world = SynthWorld.generate(WorldConfig.test())
    // The corpus of the benchmark's seed 4, whose outputs moved with the
    // partition count before labels were numbered by content.
    val corpus = SynthCorpus.generate(world, CorpusConfig.test(4000025))
    def run(partitions: Int): Seq[String] = withConf("spark.sql.shuffle.partitions", partitions.toString) {
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

  test("Song's pair features are spread over more than one partition") {
    val cores = spark.sparkContext.defaultParallelism
    assume(cores > 1, "one core: nothing to spread over")
    // Song's rows form one giant block component. With broadcast profile
    // joins (Spark's default, off elsewhere in the tests) the features
    // follow the small candidate-pair shuffle, which AQE coalesces to one
    // partition.
    val ctx = TestWorld.ctx
    val sizes = withConf("spark.sql.autoBroadcastJoinThreshold", "10485760") {
      val (feats, _) = ctx.pipe.pairStage(ctx.profilesDS1(Schemas.Song))
      feats.rdd.mapPartitions(it => Iterator(it.size)).collect()
    }
    assert(sizes.count(_ > 0) > 1, s"pair features in partitions of sizes ${sizes.mkString(", ")}")
  }

  test("materialize releases the broadcast relations of the plan it checkpoints") {
    val s = spark
    import s.implicits._
    val left = spark.range(200).select($"id" as "k", $"id" * 2 as "v")
    val right = spark.range(50).select($"id" as "k", $"id".cast("string") as "w")
    val expected = (0L until 50L).map(k => (k, k * 2, k.toString))
    withConf("spark.sql.autoBroadcastJoinThreshold", "10485760") {
      Seq("true", "false").foreach { adaptive =>
        withConf("spark.sql.adaptive.enabled", adaptive) {
          val joined = left.join(right, "k").coalesce(2)
          val out = joined.localCheckpoint()
          val released = Pipeline.releaseBroadcasts(joined.queryExecution.executedPlan)
          assert(released.nonEmpty, s"no broadcast relation found (adaptive=$adaptive)")
          released.foreach(b => intercept[SparkException](b.value))
          assert(out.as[(Long, Long, String)].collect().sorted.toSeq == expected)

          val materialized = Pipeline.materialize(left.join(right, "k"))
          assert(materialized.as[(Long, Long, String)].collect().sorted.toSeq == expected)
          assert(materialized.count() == 50)
        }
      }
    }
  }
}
