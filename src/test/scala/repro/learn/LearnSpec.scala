package repro.learn

import org.scalacheck.{Gen, Prop, Test}
import org.scalatest.funsuite.AnyFunSuite
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._
import scala.util.Random

/** Unit tests for the GA weight learner, the regression random forest and
  * the three aggregators.
  */
class LearnSpec extends AnyFunSuite {

  private def separableData(n: Int, seed: Long): (Array[Array[Double]], Array[Boolean]) = {
    val r = new Random(seed)
    val xs = Array.fill(n) {
      Array(r.nextDouble(), r.nextDouble(), r.nextDouble())
    }
    // label depends mostly on feature 0
    val ys = xs.map(f => f(0) > 0.55)
    (xs, ys)
  }

  // ---- bestThreshold --------------------------------------------------------
  test("bestThreshold finds a perfect separator") {
    val scores = Array(0.1, 0.2, 0.8, 0.9)
    val labels = Array(false, false, true, true)
    val (t, f1) = Genetic.bestThreshold(scores, labels)
    assert(f1 == 1.0)
    assert(t > 0.2 && t <= 0.8)
  }
  test("bestThreshold with all-negative labels returns F1 0") {
    val (_, f1) = Genetic.bestThreshold(Array(0.1, 0.9), Array(false, false))
    assert(f1 == 0.0)
  }
  test("bestThreshold handles interleaved labels") {
    val (_, f1) = Genetic.bestThreshold(Array(0.1, 0.4, 0.5, 0.9), Array(false, true, false, true))
    assert(f1 >= 0.5 && f1 <= 1.0)
  }

  test("bestThreshold ends on NaN scores, which form one group above every number") {
    val scores = Array(0.3, Double.NaN, 0.3, Double.NaN, Double.NaN)
    val labels = Array(false, true, true, false, true)
    // a spinning sweep keeps a daemon thread busy; the test still fails
    val (t, f1) = Await.result(
      Future(Genetic.bestThreshold(scores, labels))(ExecutionContext.global), 30.seconds)
    // all predicted positive: P = 3/5, R = 1; above 0.3: P = R = 2/3; above NaN: 0
    assert(f1 == 2 * 0.6 / 1.6)
    assert(t == 0.3 - 1e-9)
  }

  /** Checks a ScalaCheck property from a fixed seed. */
  private def check(prop: Prop): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(300)
      .withInitialSeed(org.scalacheck.rng.Seed(17L))
    val result = Test.check(params, prop)
    assert(result.passed, result.status)
  }

  /** Scores on a coarse grid (with both zeros), so that many tie. */
  private val gridScore: Gen[Double] = Gen.oneOf(-0.0, 0.0, 0.25, 0.5, 0.75, 1.0)
  /** Labels that are mixed, all positive or all negative. */
  private def labelsOf(n: Int): Gen[Array[Boolean]] = Gen.oneOf(
    Gen.listOfN(n, Gen.oneOf(true, false)), Gen.const(List.fill(n)(true)),
    Gen.const(List.fill(n)(false))).map(_.toArray)

  private def sameBits(a: Double, b: Double): Boolean = java.lang.Double.compare(a, b) == 0

  test("bestThreshold equals the boxed sort-and-scan it replaced") {
    check(Prop.forAll(Gen.choose(0, 60).flatMap(n =>
        Gen.zip(Gen.listOfN(n, gridScore).map(_.toArray), labelsOf(n)))) { case (scores, labels) =>
      val (t, f1) = Genetic.bestThreshold(scores, labels)
      val (t0, f10) = ParentKernels.bestThreshold(scores, labels)
      t == t0 && f1 == f10 && sameBits(t, t0) && sameBits(f1, f10)
    })
  }

  test("waScore equals the weighted mean over Array.sum it replaced") {
    check(Prop.forAll(Gen.choose(0, 8).flatMap(n =>
        Gen.zip(Gen.listOfN(n, gridScore).map(_.toArray), Gen.listOfN(n, gridScore).map(_.toArray)))) {
      case (w, f) => sameBits(Genetic.waScore(w, f), ParentKernels.waScore(w, f))
    })
  }

  test("random forest trees equal those of the partition-based split search") {
    val r = new Random(21)
    // features on a coarse grid: many tied values per feature
    val xs = Array.fill(300)(Array.fill(4)(r.nextInt(6) / 5.0))
    val ys = xs.map(f => if (f(0) + 0.5 * f(1) + 0.3 * r.nextGaussian() > 0.7) 1.0 else -1.0)
    Seq(3L, 9L).foreach { seed =>
      val now = RandomForest.train(xs, ys, nTrees = 15, seed = seed)
      val before = ParentKernels.train(xs, ys, nTrees = 15, seed = seed)
      assert(now.trees.toSeq == before.trees.toSeq, s"trees differ at seed $seed")
      assert(now.importances.sameElements(before.importances), s"importances differ at seed $seed")
    }
  }

  // ---- GA ---------------------------------------------------------------------
  test("GA learns to weight the informative feature highest") {
    val (xs, ys) = separableData(300, 1)
    val learned = Genetic.learn(xs, ys, seed = 2)
    assert(learned.weights(0) > learned.weights(1))
    assert(learned.weights(0) > learned.weights(2))
    assert(learned.f1 > 0.9)
  }
  test("GA weights are normalized and non-negative") {
    val (xs, ys) = separableData(150, 3)
    val learned = Genetic.learn(xs, ys, seed = 4)
    assert(math.abs(learned.weights.sum - 1.0) < 1e-9)
    assert(learned.weights.forall(_ >= 0.0))
  }
  test("GA on empty input returns uniform weights") {
    val learned = Genetic.learn(Array.empty, Array.empty, seed = 5)
    assert(learned.weights.forall(_ >= 0.0))
  }
  test("waScore is a weighted mean") {
    assert(math.abs(Genetic.waScore(Array(1.0, 3.0), Array(0.0, 1.0)) - 0.75) < 1e-12)
  }
  test("waScore with zero weights is 0") {
    assert(Genetic.waScore(Array(0.0, 0.0), Array(0.5, 0.5)) == 0.0)
  }

  // ---- Random forest ----------------------------------------------------------
  test("random forest fits a separable regression target") {
    val (xs, ys) = separableData(400, 6)
    val targets = ys.map(b => if (b) 1.0 else -1.0)
    val model = RandomForest.train(xs, targets, nTrees = 30, seed = 7)
    val preds = xs.map(model.predict)
    val acc = preds.zip(ys).count { case (p, y) => (p > 0) == y }.toDouble / xs.length
    assert(acc > 0.9, s"train accuracy too low: $acc")
  }
  test("random forest importances favor the informative feature") {
    val (xs, ys) = separableData(400, 8)
    val targets = ys.map(b => if (b) 1.0 else -1.0)
    val model = RandomForest.train(xs, targets, nTrees = 30, seed = 9)
    assert(model.importances(0) > model.importances(1))
    assert(model.importances(0) > model.importances(2))
    assert(math.abs(model.importances.sum - 1.0) < 1e-9)
  }
  test("random forest predicts constant target exactly") {
    val xs = Array.fill(50)(Array(1.0, 2.0))
    val model = RandomForest.train(xs, Array.fill(50)(0.5), nTrees = 5, seed = 10)
    assert(math.abs(model.predict(Array(1.0, 2.0)) - 0.5) < 1e-9)
  }

  // ---- aggregators ---------------------------------------------------------------
  test("trained aggregators separate a synthetic pair task") {
    val (xs, ys) = separableData(300, 11)
    val (wa, rf, combined) = Aggregators.train(xs, ys, Array(0, 1, 2), seed = 12)
    def acc(a: Aggregator): Double =
      xs.zip(ys).count { case (f, y) => (a.normScore(f) > 0) == y }.toDouble / xs.length
    assert(acc(wa) > 0.85, s"weighted average too weak: ${acc(wa)}")
    assert(acc(rf) > 0.85, s"forest too weak: ${acc(rf)}")
    assert(acc(combined) > 0.85, s"combined too weak: ${acc(combined)}")
  }
  test("weighted-average normScore is in [-1,1] and monotone around threshold") {
    val wa = WeightedAvgAgg(Array(1.0), Array(0), 0.6)
    assert(wa.normScore(Array(0.6)) == 0.0)
    assert(wa.normScore(Array(1.0)) == 1.0)
    assert(wa.normScore(Array(0.0)) == -1.0)
    assert(wa.normScore(Array(0.8)) > 0.0)
    assert(wa.normScore(Array(0.4)) < 0.0)
  }
  test("combined aggregator importances average both parts") {
    val (xs, ys) = separableData(200, 13)
    val (_, _, combined) = Aggregators.train(xs, ys, Array(0, 1, 2), seed = 14)
    assert(combined.importances.length == 3)
    assert(combined.importances.forall(i => i >= 0.0 && i <= 1.0))
  }
  test("f1 helper computes the harmonic mean of P and R") {
    val preds = Array(true, true, false, false)
    val labels = Array(true, false, true, false)
    // tp=1 fp=1 fn=1 -> P=R=0.5 -> F1=0.5
    assert(math.abs(Aggregators.f1(preds, labels) - 0.5) < 1e-12)
  }
}

/** The learner kernels as they were before they became primitive loops, kept
  * to check that the loops give the same models.
  */
private object ParentKernels {
  import RandomForest.{Leaf, Model, Node, Split}

  def waScore(weights: Array[Double], f: Array[Double]): Double = {
    val s = weights.sum
    if (s == 0.0) 0.0
    else {
      var acc = 0.0; var i = 0
      while (i < weights.length) { acc += weights(i) * f(i); i += 1 }
      acc / s
    }
  }

  def bestThreshold(scores: Array[Double], labels: Array[Boolean]): (Double, Double) = {
    val order = scores.zip(labels).sortBy(_._1)
    val totalPos = labels.count(identity)
    if (totalPos == 0) return (0.5, 0.0)
    var bestT = 0.5; var bestF1 = -1.0
    var tp = totalPos; var fp = labels.length - totalPos
    var i = 0
    def f1(tp: Int, fp: Int): Double = {
      val fn = totalPos - tp
      if (tp == 0) 0.0
      else { val p = tp.toDouble / (tp + fp); val r = tp.toDouble / (tp + fn); 2 * p * r / (p + r) }
    }
    val v0 = f1(tp, fp)
    if (v0 > bestF1) { bestF1 = v0; bestT = if (order.isEmpty) 0.0 else order.head._1 - 1e-9 }
    while (i < order.length) {
      var j = i
      while (j < order.length && order(j)._1 == order(i)._1) {
        if (order(j)._2) tp -= 1 else fp -= 1
        j += 1
      }
      val t = if (j < order.length) (order(i)._1 + order(j)._1) / 2 else order(i)._1 + 1e-9
      val v = f1(tp, fp)
      if (v > bestF1) { bestF1 = v; bestT = t }
      i = j
    }
    (bestT, bestF1)
  }

  private def variance(idx: Array[Int], y: Array[Double]): Double = {
    if (idx.isEmpty) return 0.0
    var s = 0.0; var s2 = 0.0
    idx.foreach { i => s += y(i); s2 += y(i) * y(i) }
    val m = s / idx.length
    s2 / idx.length - m * m
  }

  private def predictTree(n: Node, f: Array[Double]): Double = n match {
    case Leaf(v) => v
    case Split(i, t, l, r) => if (f(i) <= t) predictTree(l, f) else predictTree(r, f)
  }

  private def buildTree(xs: Array[Array[Double]], y: Array[Double], idx: Array[Int],
                        depth: Int, maxDepth: Int, minLeaf: Int, mtry: Int,
                        rnd: Random, imp: Array[Double]): Node = {
    if (idx.isEmpty) return Leaf(0.0)
    val mean = idx.map(y).sum / idx.length
    if (depth >= maxDepth || idx.length < 2 * minLeaf) return Leaf(mean)
    val parentVar = variance(idx, y)
    if (parentVar < 1e-12) return Leaf(mean)
    val nFeat = xs.head.length
    val feats = rnd.shuffle((0 until nFeat).toList).take(mtry)
    var bestGain = 0.0; var bestF = -1; var bestT = 0.0
    feats.foreach { f =>
      val vals = idx.map(i => xs(i)(f)).distinct.sorted
      if (vals.length > 1) {
        val step = math.max(1, vals.length / 16)
        var k = 0
        while (k < vals.length - 1) {
          val t = (vals(k) + vals(k + 1)) / 2
          val (l, r) = idx.partition(i => xs(i)(f) <= t)
          if (l.length >= minLeaf && r.length >= minLeaf) {
            val gain = parentVar -
              (l.length * variance(l, y) + r.length * variance(r, y)) / idx.length
            if (gain > bestGain) { bestGain = gain; bestF = f; bestT = t }
          }
          k += step
        }
      }
    }
    if (bestF < 0) return Leaf(mean)
    imp(bestF) += bestGain * idx.length
    val (l, r) = idx.partition(i => xs(i)(bestF) <= bestT)
    Split(bestF, bestT,
      buildTree(xs, y, l, depth + 1, maxDepth, minLeaf, mtry, rnd, imp),
      buildTree(xs, y, r, depth + 1, maxDepth, minLeaf, mtry, rnd, imp))
  }

  private def trainOne(xs: Array[Array[Double]], y: Array[Double], nTrees: Int,
                       maxDepth: Int, minLeaf: Int, seed: Long): (Model, Double) = {
    val n = xs.length
    val nFeat = xs.head.length
    val mtry = math.max(1, math.ceil(nFeat / 3.0).toInt)
    val rnd = new Random(seed)
    val imp = Array.fill(nFeat)(0.0)
    val oobSum = Array.fill(n)(0.0); val oobCnt = Array.fill(n)(0)
    val trees = (0 until nTrees).map { _ =>
      val bag = Array.fill(n)(rnd.nextInt(n))
      val inBag = bag.toSet
      val tree = buildTree(xs, y, bag, 0, maxDepth, minLeaf, mtry, rnd, imp)
      (0 until n).foreach { i =>
        if (!inBag.contains(i)) { oobSum(i) += predictTree(tree, xs(i)); oobCnt(i) += 1 }
      }
      tree
    }.toArray
    var err = 0.0; var cnt = 0
    (0 until n).foreach { i =>
      if (oobCnt(i) > 0) { val d = oobSum(i) / oobCnt(i) - y(i); err += d * d; cnt += 1 }
    }
    val tot = imp.sum
    val normImp = if (tot == 0) Array.fill(nFeat)(1.0 / nFeat) else imp.map(_ / tot)
    (Model(trees, normImp), if (cnt == 0) Double.MaxValue else err / cnt)
  }

  def train(xs: Array[Array[Double]], y: Array[Double], nTrees: Int, seed: Long): Model =
    Seq((4, 4), (6, 2), (8, 2)).map { case (d, l) => trainOne(xs, y, nTrees, d, l, seed) }.minBy(_._2)._1
}
