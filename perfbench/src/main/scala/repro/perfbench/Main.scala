package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths, StandardOpenOption}
import org.apache.spark.sql.SparkSession
import repro.eval.Experiment
import repro.world.{SynthCorpus, SynthWorld}
import scala.jdk.CollectionConverters._

/** Pipeline benchmark driver: one JVM, one closed-loop client.
  *
  * Usage: Main --workload NAME --seed N --seconds S --trace 0|1 [--state DIR]
  *
  * An untraced run measures samples back to back until `--seconds` have
  * passed (at least one). A traced run measures one traced sample. Each
  * sample sets up [[SetupRepeats]] times (SparkSession, generated inputs,
  * pipeline with cached cells and columns), keeps the last set-up, and runs
  * the workload's operation once on it. `--state` names a directory that
  * keeps fingerprints and untraced run times across runs of one checkout,
  * and the spans of the last traced run of each seed.
  *
  * Prints one JSON object as the last line of standard output. Exits 1 when
  * an output check fails, 2 on bad arguments.
  */
object Main {
  val SetupRepeats = 5

  final case class Sample(traced: Boolean, setupS: Double, runS: Double, liveMb: Double,
                          failed: Boolean, fingerprint: String, quality: Map[String, Double],
                          spans: Seq[Span], uncoveredShare: Double)

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts.get("workload").flatMap(Workloads.byName).getOrElse {
      Console.err.println(s"unknown or missing --workload; one of ${Workloads.all.map(_.name).mkString(", ")}")
      sys.exit(2)
    }
    val seed = opts.get("seed").map(_.toLong).getOrElse(1L)
    val seconds = opts.get("seconds").map(_.toDouble).getOrElse(10.0)
    val trace = opts.get("trace").contains("1")
    val state = new State(opts.get("state").map(Paths.get(_)), workload.name)

    val samples = scala.collection.mutable.ArrayBuffer.empty[Sample]
    val clock0 = System.nanoTime()
    if (!trace) {
      while (samples.isEmpty || (System.nanoTime() - clock0) / 1e9 < seconds)
        samples += runSample(workload, seed, traced = false)
    } else {
      // Tracing overhead needs an untraced run time of this workload; measure
      // one here only when no earlier run of this checkout left one.
      if (state.runTimes(None).isEmpty) samples += runSample(workload, seed, traced = false)
      samples += runSample(workload, seed, traced = true)
    }
    val plain = samples.filterNot(_.traced).toSeq
    plain.filterNot(_.failed).foreach(s => state.recordRunTime(seed, s.runS))

    println(s"# workload=${workload.name} class=${workload.cls} seed=$seed trace=${if (trace) 1 else 0} " +
            s"samples=${samples.size} $sparkSettings driver_heap_mb=${Runtime.getRuntime.maxMemory >> 20}")
    samples.zipWithIndex.foreach { case (s, i) =>
      println(f"# sample $i traced=${s.traced} setup_s=${s.setupS}%.3f run_s=${s.runS}%.3f " +
              f"live_mb=${s.liveMb}%.1f failed=${s.failed} fingerprint=${s.fingerprint} " +
              Quality.names.map(n => f"$n=${s.quality.getOrElse(n, Double.NaN)}%.4f").mkString(" "))
    }

    val failed = samples.count(_.failed)
    val fingerprints = samples.filterNot(_.failed).map(_.fingerprint).distinct
    val agreesWithEarlier = fingerprints.forall(state.sameFingerprint(seed, _))
    if (fingerprints.size > 1) Console.err.println(s"fingerprints differ between samples: ${fingerprints.mkString(" ")}")
    if (!agreesWithEarlier) Console.err.println(s"fingerprint differs from an earlier run with seed $seed")
    val correct = failed == 0 && fingerprints.size == 1 && agreesWithEarlier
    println(f"# failed_frac = ${failed.toDouble / samples.size} ratio ($failed of ${samples.size} operations)")

    val metrics: Seq[(String, Double, String)] =
      if (!trace) Seq(
        ("run_s", median(plain.map(_.runS)), "s"),
        ("setup_s", median(plain.map(_.setupS)), "s"),
        ("driver_live_mb", median(plain.map(_.liveMb)), "MB"))
      else {
        val reference = Some(state.runTimes(Some(seed))).filter(_.nonEmpty).getOrElse(state.runTimes(None))
        samples.filter(_.traced).foreach(s => state.writeSpans(seed, s.spans))
        LayerMetrics.report(samples.filter(_.traced).toSeq, median(reference))
      }
    Quality.names.foreach(n => println(s"# $n = ${median(samples.flatMap(_.quality.get(n)).toSeq)} ratio"))
    metrics.foreach { case (n, v, u) => println(s"# $n = $v $u") }
    println(Json.result(correct, samples.size, failed, metrics))
    if (!correct) sys.exit(1)
  }

  /** Set up [[SetupRepeats]] times, then run the operation once. */
  def runSample(w: Workload, seed: Long, traced: Boolean): Sample = {
    val tr = new Tracer(traced)
    val setupTimes = scala.collection.mutable.ArrayBuffer.empty[Double]
    var session: Option[(SparkSession, Experiment.Ctx)] = None
    (1 to SetupRepeats).foreach { _ =>
      session.foreach(_._1.stop()) // and drop the context, so no set-up but the last stays live
      session = None
      val t0 = System.nanoTime()
      session = Some(setUp(w, seed, tr))
      setupTimes += (System.nanoTime() - t0) / 1e9
    }
    val (spark, ctx) = session.get
    try {
      val t1 = System.nanoTime()
      val out = attempt(ctx match {
        case tc: TracedCtx => Ops.traced(tc, w.cls, tr)
        case _ => Ops.plain(ctx, w.cls)
      })
      val t2 = System.nanoTime()
      val liveMb = Heap.liveMb() // the outputs are still referenced by `out`

      val schema = ctx.kb.schemaByClass.getOrElse(w.cls, Map.empty).keySet
      val sound = out.filter { run =>
        val v = OutputCheck.violations(run, schema)
        v.foreach(x => Console.err.println(s"output check failed for ${w.cls}: $x"))
        v.isEmpty
      }
      Sample(traced, median(setupTimes.toSeq), (t2 - t1) / 1e9, liveMb, sound.isEmpty,
             sound.fold("")(OutputCheck.fingerprint), sound.fold(Map.empty[String, Double])(Quality.of(ctx, _)),
             tr.spans, Tracer.uncoveredShare(tr.spans, t1, t2))
    } finally spark.stop()
  }

  /** Start a session the way the jobs do, and build the inputs and the
    * pipeline with its cells and columns cached.
    */
  private def setUp(w: Workload, seed: Long, tr: Tracer): (SparkSession, Experiment.Ctx) = {
    val spark = SparkSession.builder().master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"perfbench-${w.name}").getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    sparkSettings = s"master=${spark.sparkContext.master} cores=${spark.sparkContext.defaultParallelism} " +
      s"spark.sql.shuffle.partitions=${spark.conf.get("spark.sql.shuffle.partitions")}"
    val ctx =
      if (!tr.enabled) Experiment.build(spark, Workloads.world, Workloads.corpus(seed))
      else {
        val world = SynthWorld.generate(Workloads.world)
        new TracedCtx(spark, world, SynthCorpus.generate(world, Workloads.corpus(seed)), tr)
      }
    ctx.pipe.cells.count(); ctx.pipe.columns.count()
    (spark, ctx)
  }

  /** Effective master, cores and shuffle partitions of the last session. */
  private var sparkSettings = ""

  private def attempt[A](body: => A): Option[A] =
    try Some(body) catch {
      case e: Exception =>
        Console.err.println(s"operation failed: $e"); e.printStackTrace(); None
    }

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted; val n = s.size
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }
}

/** What runs of one checkout leave for later runs of the same workload: the
  * first fingerprint seen per seed, and every untraced run time.
  */
final class State(dir: Option[Path], workload: String) {
  dir.foreach(Files.createDirectories(_))
  private def file(seed: Long, ext: String) = dir.map(_.resolve(s"$workload-$seed.$ext"))

  /** True when no earlier run of this seed left a different fingerprint;
    * the first run of a seed records its fingerprint.
    */
  def sameFingerprint(seed: Long, fp: String): Boolean = file(seed, "sha256").forall { f =>
    if (Files.exists(f)) new String(Files.readAllBytes(f), StandardCharsets.UTF_8).trim == fp
    else { Files.write(f, fp.getBytes(StandardCharsets.UTF_8)); true }
  }

  /** Writes a traced run's spans, one per line, times in ms from the first. */
  def writeSpans(seed: Long, spans: Seq[Span]): Unit = file(seed, "spans.tsv").foreach { f =>
    val t0 = spans.map(_.startNs).minOption.getOrElse(0L)
    val self = Tracer.selfNs(spans)
    val lines = "run\tid\tparent\tname\tstart_ms\tduration_ms\tself_ms\tcounts" +: spans.sortBy(_.id).map { s =>
      Seq(s.runId, s.id, s.parent, s.name, (s.startNs - t0) / 1e6, s.durationNs / 1e6, self(s.id) / 1e6,
          s.counts.toSeq.sorted.map { case (k, v) => s"$k=$v" }.mkString(",")).mkString("\t")
    }
    Files.write(f, lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }

  def recordRunTime(seed: Long, runS: Double): Unit = file(seed, "run_s").foreach { f =>
    Files.write(f, s"$runS\n".getBytes(StandardCharsets.UTF_8),
                StandardOpenOption.CREATE, StandardOpenOption.APPEND)
  }

  /** Recorded untraced run times of one seed, or of every seed. */
  def runTimes(seed: Option[Long]): Seq[Double] = dir.toSeq.flatMap { d =>
    val files = seed match {
      case Some(s) => file(s, "run_s").filter(Files.exists(_)).toSeq
      case None =>
        val all = Files.list(d)
        try all.iterator().asScala
          .filter(p => p.getFileName.toString.startsWith(s"$workload-") && p.toString.endsWith(".run_s")).toList
        finally all.close()
    }
    files.flatMap(f => Files.readAllLines(f).asScala.map(_.trim).filter(_.nonEmpty).map(_.toDouble))
  }
}

object Json {
  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else java.lang.Double.toString(v)

  def result(correct: Boolean, attempted: Int, failed: Int, metrics: Seq[(String, Double, String)]): String = {
    val ms = metrics.map { case (n, v, u) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
