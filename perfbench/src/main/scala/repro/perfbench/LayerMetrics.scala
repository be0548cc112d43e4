package repro.perfbench

/** Per-layer metrics of a traced run, named `<span>.<metric>`. */
object LayerMetrics {

  /** Every span the traced run records, with the counts it carries. */
  val spans: Seq[(String, Seq[String])] = Seq(
    "core.corpus" -> Nil,
    "core.learn_fold" -> Nil,
    "core.iteration1" -> Nil,
    "matching.types" -> Nil,
    "matching.label_attr" -> Nil,
    "matching.table_class" -> Seq("tables_matched", "row_cands"),
    "matching.attr_features.it1" -> Seq("rows", "live_mb"),
    "matching.attr_match" -> Seq("correspondences", "accept_ratio"),
    "learn.attr" -> Seq("examples"),
    "learn.cluster" -> Seq("examples"),
    "learn.detect" -> Seq("examples"),
    "clustering.profiles" -> Seq("rows"),
    "clustering.pairs" -> Seq("candidates", "components", "largest_component", "positive_ratio", "live_mb"),
    "clustering.cluster" -> Seq("clusters"),
    "fusion.entities" -> Seq("entities", "facts"),
    "kb.snapshot" -> Seq("instances"),
    "newdetect.detect" -> Seq("new", "existing", "undecided"),
  )

  /** Accounting of the traced run as a whole. */
  val accounting: Seq[(String, String)] = Seq(
    "trace.run_s" -> "s",
    "trace.overhead_s" -> "s",
    "trace.uncovered_share" -> "ratio",
    "trace.s" -> "s",
  )

  def unit(count: String): String = count match {
    case "live_mb" => "MB"
    case c if c.endsWith("_ratio") => "ratio"
    case _ => "count"
  }

  /** Every metric name with its unit, in report order. */
  val names: Seq[(String, String)] =
    spans.flatMap { case (s, counts) =>
      Seq(s"$s.s" -> "s", s"$s.calls" -> "count") ++ counts.map(c => s"$s.$c" -> unit(c))
    } ++ accounting

  /** Metrics of one traced sample. Self times and counts add up over a
    * name's calls, except peaks (`live_mb`, `largest_component`, taken as the
    * maximum) and ratios (taken over the summed numerators and denominators).
    */
  def ofSample(spans: Seq[Span]): Map[String, Double] = {
    val self = Tracer.selfNs(spans)
    val byName = spans.groupBy(_.name)
    def sum(ss: Seq[Span], k: String) = ss.flatMap(_.counts.get(k)).sum
    def max(ss: Seq[Span], k: String) = ss.flatMap(_.counts.get(k)).maxOption.getOrElse(0.0)
    def ratio(num: Double, den: Double) = if (den == 0) 0.0 else num / den
    val perSpan = (this.spans.map(_._1) :+ Tracer.Bookkeeping).flatMap { name =>
      val ss = byName.getOrElse(name, Nil)
      Seq(s"$name.s" -> ss.map(s => self(s.id)).sum / 1e9, s"$name.calls" -> ss.size.toDouble) ++
        ss.flatMap(_.counts.keySet).distinct.map { k => s"$name.$k" -> (k match {
          case "live_mb" | "largest_component" => max(ss, k)
          case _ => sum(ss, k)
        }) }
    }.toMap
    val scored = byName.getOrElse("clustering.pairs", Nil).filter(_.counts.contains("positive"))
    val matched = byName.getOrElse("matching.attr_match", Nil)
    perSpan ++ Map(
      "clustering.pairs.positive_ratio" -> ratio(sum(scored, "positive"), sum(scored, "candidates")),
      "matching.attr_match.accept_ratio" ->
        ratio(sum(matched, "correspondences"), sum(matched, "feature_columns")))
  }

  /** The traced run's report: medians over traced samples of every metric in
    * [[names]]; the overhead is taken against an untraced run time of the
    * same workload.
    */
  def report(traced: Seq[Main.Sample], untracedRunS: Double): Seq[(String, Double, String)] = {
    val per = traced.map(s => ofSample(s.spans) ++ Map(
      "trace.run_s" -> s.runS, "trace.uncovered_share" -> s.uncoveredShare,
      "trace.overhead_s" -> (s.runS - untracedRunS)))
    names.map { case (n, u) => (n, Main.median(per.map(_.getOrElse(n, 0.0))), u) }
  }
}
