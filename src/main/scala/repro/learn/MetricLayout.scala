package repro.learn

/** Layout of a similarity feature vector: one score per metric, in metric
  * order, each followed by its confidence for the metrics that have one.
  * Aggregators read the vector through this layout: the weighted average
  * takes the scores only, the forest takes every selected feature.
  *
  * @param metrics (metric name, carries a confidence) in vector order
  */
abstract class MetricLayout(metrics: Seq[(String, Boolean)]) {

  val metricNames: Seq[String] = metrics.map(_._1)

  /** Feature indices (score, optional confidence) per metric. */
  val metricIdx: Map[String, (Int, Option[Int])] =
    metrics.foldLeft((0, Map.empty[String, (Int, Option[Int])])) { case ((i, m), (name, conf)) =>
      if (conf) (i + 2, m + (name -> (i, Some(i + 1)))) else (i + 1, m + (name -> (i, None)))
    }._2

  val dim: Int = metrics.count(_._2) + metrics.size

  /** Full-feature indices for an active metric subset (confidences included). */
  def featureIndices(metrics: Seq[String]): Array[Int] =
    metrics.flatMap { m => val (s, c) = metricIdx(m); s +: c.toSeq }.toArray.sorted

  /** Score-only indices (the weighted average ignores confidences). */
  def scoreIndices(metrics: Seq[String]): Array[Int] =
    metrics.map(m => metricIdx(m)._1).toArray.sorted

  /** Train the combined aggregator of a metric subset on full feature
    * vectors; returns it with the subset's feature indices, which select the
    * vector the aggregator scores.
    */
  def train(features: Seq[Array[Double]], labels: Seq[Boolean], metrics: Seq[String],
            seed: Long): (CombinedAgg, Array[Int]) = {
    val fi = featureIndices(metrics)
    val scoresWithin = scoreIndices(metrics).map(fi.indexOf(_))
    val (_, _, combined) =
      Aggregators.train(features.map(f => fi.map(f)).toArray, labels.toArray, scoresWithin, seed)
    (combined, fi)
  }

  /** An aggregator's importances by metric name; the aggregator was trained
    * on `metrics`, and its importances follow their score indices.
    */
  def importances(agg: Aggregator, metrics: Seq[String]): Map[String, Double] =
    metrics.sortBy(metricIdx(_)._1).zip(agg.importances.toSeq).toMap
}
