package repro.learn

import scala.util.Random

/** Genetic-algorithm weight learner (paper Sections 3.1/3.2): finds a
  * non-negative weight vector (and a matching threshold) for a weighted
  * average of similarity scores that maximizes F1 of pair classification on
  * the learning set. Stand-in for the paper's unspecified GA implementation.
  */
object Genetic {

  case class Learned(weights: Array[Double], threshold: Double, f1: Double)

  /** Weighted-average score of one feature row in [0,1]. */
  def waScore(weights: Array[Double], f: Array[Double]): Double = {
    var s = 0.0; var k = 0
    while (k < weights.length) { s += weights(k); k += 1 }
    if (s == 0.0) 0.0
    else {
      var acc = 0.0; var i = 0
      while (i < weights.length) { acc += weights(i) * f(i); i += 1 }
      acc / s
    }
  }

  /** Best threshold + F1 for given scores/labels, scanning score midpoints.
    * Scores are swept in ascending `java.lang.Double.compare` order, one tie
    * group (scores `==` the group's first) at a time; NaN scores form one
    * group above every number.
    */
  def bestThreshold(scores: Array[Double], labels: Array[Boolean]): (Double, Double) = {
    val totalPos = {
      var c = 0; var k = 0
      while (k < labels.length) { if (labels(k)) c += 1; k += 1 }
      c
    }
    if (totalPos == 0) return (0.5, 0.0)
    val pos = new Array[Double](totalPos)
    val neg = new Array[Double](labels.length - totalPos)
    var np = 0; var nn = 0; var k = 0
    while (k < labels.length) {
      if (labels(k)) { pos(np) = scores(k); np += 1 } else { neg(nn) = scores(k); nn += 1 }
      k += 1
    }
    java.util.Arrays.sort(pos); java.util.Arrays.sort(neg)
    def f1(tp: Int, fp: Int): Double = {
      val fn = totalPos - tp
      if (tp == 0) 0.0
      else { val p = tp.toDouble / (tp + fp); val r = tp.toDouble / (tp + fn); 2 * p * r / (p + r) }
    }
    def same(x: Double, v: Double): Boolean = x == v || (x.isNaN && v.isNaN)
    // candidate thresholds: every distinct score (predict >= t as positive)
    var tp = totalPos; var fp = neg.length
    var i = 0; var j = 0 // next unswept positive / negative
    def next: Double =
      if (i == pos.length) neg(j)
      else if (j == neg.length || java.lang.Double.compare(pos(i), neg(j)) <= 0) pos(i)
      else neg(j)
    var bestT = next - 1e-9; var bestF1 = f1(tp, fp)
    while (i < pos.length || j < neg.length) {
      // raise the threshold just above the group's score v
      val v = next
      while (i < pos.length && same(pos(i), v)) { tp -= 1; i += 1 }
      while (j < neg.length && same(neg(j), v)) { fp -= 1; j += 1 }
      val t = if (i < pos.length || j < neg.length) (v + next) / 2 else v + 1e-9
      val f = f1(tp, fp)
      if (f > bestF1) { bestF1 = f; bestT = t }
    }
    (bestT, bestF1)
  }

  /** Learn weights maximizing pair-F1. `features` rows align with `labels`.
    * Positive pairs are upsampled to balance the classes (paper Section 3.2).
    */
  def learn(features: Array[Array[Double]], labels: Array[Boolean],
            seed: Long = 5, popSize: Int = 36, generations: Int = 40): Learned = {
    val dim = if (features.isEmpty) 1 else features.head.length
    if (features.isEmpty)
      return Learned(Array.fill(dim)(1.0 / dim), 0.5, 0.0)
    val rnd = new Random(seed)

    // upsample positives to balance
    val pos = features.indices.filter(labels(_))
    val neg = features.indices.filterNot(labels(_))
    val idx: Array[Int] =
      if (pos.isEmpty || neg.isEmpty) features.indices.toArray
      else {
        val reps = math.max(1, neg.size / pos.size)
        (neg ++ Seq.fill(reps)(pos).flatten).toArray
      }
    val fs = idx.map(features)
    val ls = idx.map(labels)

    def fitness(w: Array[Double]): (Double, Double) = {
      val scores = fs.map(waScore(w, _))
      val (t, f1) = bestThreshold(scores, ls)
      (f1, t)
    }

    var pop = Array.fill(popSize)(Array.fill(dim)(rnd.nextDouble()))
    var best = pop.head; var bestFit = -1.0; var bestT = 0.5
    (0 until generations).foreach { _ =>
      val scored = pop.map(w => (w, fitness(w)))
      scored.foreach { case (w, (f1, t)) =>
        if (f1 > bestFit) { bestFit = f1; best = w.clone(); bestT = t }
      }
      def tournament(): Array[Double] =
        Array.fill(3)(scored(rnd.nextInt(scored.length))).maxBy(_._2._1)._1
      pop = Array.fill(popSize) {
        val a = tournament(); val b = tournament()
        val mix = rnd.nextDouble()
        val child = Array.tabulate(dim)(i => mix * a(i) + (1 - mix) * b(i))
        // gaussian mutation, clipped at zero (weights are non-negative)
        (0 until dim).foreach { i =>
          if (rnd.nextDouble() < 0.25) child(i) = math.max(0.0, child(i) + rnd.nextGaussian() * 0.15)
        }
        child
      }
      pop(0) = best.clone() // elitism
    }
    val s = best.sum
    val norm = if (s == 0) Array.fill(dim)(1.0 / dim) else best.map(_ / s)
    Learned(norm, bestT, bestFit)
  }
}
