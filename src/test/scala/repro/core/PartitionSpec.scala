package repro.core

import java.util.UUID
import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}
import org.apache.spark.SparkException
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.{RunFingerprint, SparkSpec, TestWorld}
import repro.clustering.RowSimilarity
import repro.eval.Experiment
import repro.fusion.Voting
import repro.newdetect.EntitySimilarity
import repro.world.{CorpusConfig, Schemas, SynthCorpus, SynthWorld, WorldConfig}
import scala.jdk.CollectionConverters._

/** Outputs must not depend on how Spark partitions the stage data. */
class PartitionSpec extends SparkSpec {

  private def withConf[A](key: String, value: String)(body: => A): A = {
    val saved = spark.conf.get(key)
    spark.conf.set(key, value)
    try body finally spark.conf.set(key, saved)
  }

  private val ShufflePartitions = "spark.sql.shuffle.partitions"
  private val MarkKey = "repro.partitionSpec.mark"

  /** Partition counts of the shuffles read by the jobs that `body` runs, by
    * the id of the RDD that reads each one. The jobs' events are delivered
    * to listeners asynchronously; a marked job run after `body` tells when
    * all of them have arrived.
    */
  private def shuffleReads(body: => Any): Map[Int, Int] = {
    val mark = UUID.randomUUID().toString
    val reads = new ConcurrentHashMap[Int, Int]()
    val marked = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(job: SparkListenerJobStart): Unit =
        if (Option(job.properties).exists(_.getProperty(MarkKey) == mark)) marked.countDown()
        else job.stageInfos.flatMap(_.rddInfos).filter(_.name.startsWith("Shuffled"))
          .foreach(r => reads.put(r.id, r.numPartitions))
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      body
      sc.setLocalProperty(MarkKey, mark)
      try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty(MarkKey, null)
      assert(marked.await(60, TimeUnit.SECONDS), "the marked job's start was not delivered")
    } finally sc.removeSparkListener(listener)
    reads.asScala.toMap
  }

  test("iteration-1 outputs are equal at 1, 2 and 3 shuffle partitions") {
    val cls = Schemas.Song
    val world = SynthWorld.generate(WorldConfig.test())
    // The corpus of the benchmark's seed 4, whose outputs moved with the
    // partition count before labels were numbered by content. Stages cap
    // their shuffles at one partition per core, so on four cores these
    // three counts stay distinct.
    val corpus = SynthCorpus.generate(world, CorpusConfig.test(4000025))
    def run(partitions: Int): Seq[String] = withConf("spark.sql.shuffle.partitions", partitions.toString) {
      val ctx = new Experiment.Ctx(spark, world, corpus)
      val models = Experiment.learnFold(ctx, cls, ctx.goldClustersOf(cls).map(_.entityId).toSet)
      RunFingerprint.lines(Experiment.iteration1(ctx, cls, models, Voting))
    }
    val reference = run(1)
    Seq(2, 3).foreach { n =>
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

  test("stage shuffles have at most one partition per core, and the setting is put back") {
    val s = spark
    import s.implicits._
    val ctx = TestWorld.ctx
    val cls = Schemas.GFPlayer
    val cores = spark.sparkContext.defaultParallelism
    val session = spark.conf.getAll.get(ShufflePartitions)
    assume(session.exists(_.toInt > cores), s"the session plans at $session partitions, $cores cores")
    val gold = ctx.goldClustersOf(cls).map(_.entityId).toSet
    val models = Experiment.learnFold(ctx, cls, gold)
    val clusterIdx = RowSimilarity.featureIndices(models.clusterMetrics)
    val attrCorr = ctx.corr1.map { case (k, v) => k -> v._1 }
    val ents = Experiment.goldEntities(ctx, cls, gold)
    // A pipeline of its own, so that the corpus-wide stages run here too.
    val pipe = new Pipeline(spark, ctx.kb, ctx.pipe.cells, ctx.pipe.columns, Schemas.kbPropertyLabels)
    lazy val profiles = pipe.profiles(cls, attrCorr)
    lazy val pairStage = pipe.pairStage(profiles)
    val stages: Seq[(String, () => Any)] = Seq(
      "table class" -> (() => pipe.tableClassAndCands),
      "attribute features" -> (() => pipe.attrFeatures1),
      "correspondences" -> (() => pipe.attrCorrespondences(pipe.attrFeatures1, ctx.attrModel1)),
      "profiles" -> (() => profiles),
      "pair stage" -> (() => pairStage),
      "cluster" -> (() => pipe.cluster(pairStage._1, pairStage._2, models.clusterAgg, clusterIdx)),
      "column trust" -> (() => pipe.columnTrust(attrCorr)),
      "detect" -> (() => pipe.detect(cls, ents.toDS(), models.detectAgg,
        EntitySimilarity.featureIndices(models.detectMetrics), models.tNew, models.tMatch)))
    // Without adaptive execution each shuffle is read at the partition count
    // it was planned with, not at a coalesced one.
    val reads = withConf("spark.sql.adaptive.enabled", "false") {
      stages.map { case (name, run) =>
        val counts = shuffleReads(run())
        assert(spark.conf.getAll.get(ShufflePartitions) == session, s"$name left the setting changed")
        name -> counts.values
      }
    }
    reads.foreach { case (name, counts) =>
      assert(counts.forall(_ <= cores), s"$name read shuffles of ${counts.mkString(", ")} partitions, $cores cores")
    }
    // Every stage but detect, which reads a local Dataset, shuffles here.
    val unshuffled = reads.collect { case (name, counts) if counts.isEmpty => name }
    assert(unshuffled.forall(_ == "detect"), s"no shuffle seen in ${unshuffled.mkString(", ")}")

    // A stage that throws, and a session without a setting of its own.
    intercept[SparkException](pipe.cluster(pairStage._1, Map.empty, models.clusterAgg, clusterIdx))
    assert(spark.conf.getAll.get(ShufflePartitions) == session)
    spark.conf.unset(ShufflePartitions)
    try {
      Pipeline.materialize(spark.range(10).groupBy($"id" % 3).count())
      assert(!spark.conf.getAll.contains(ShufflePartitions))
    } finally session.foreach(spark.conf.set(ShufflePartitions, _))
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
