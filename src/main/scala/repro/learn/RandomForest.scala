package repro.learn

import scala.util.Random

/** Regression random forest (paper Section 3.2, stand-in for WEKA):
  * bootstrap sampling, random feature subsets per split, variance-reduction
  * splits, depth/leaf-size limits tuned by out-of-bag error. Exposes
  * feature importances (total variance reduction per feature, normalized)
  * used for the paper's "metric importance" columns.
  */
object RandomForest {

  sealed trait Node extends Serializable
  case class Leaf(value: Double) extends Node
  case class Split(feature: Int, threshold: Double, left: Node, right: Node) extends Node

  case class Model(trees: Array[Node], importances: Array[Double]) extends Serializable {
    def predict(f: Array[Double]): Double = {
      var acc = 0.0
      trees.foreach { t => acc += predictTree(t, f) }
      acc / trees.length
    }
  }

  private def predictTree(n: Node, f: Array[Double]): Double = n match {
    case Leaf(v) => v
    case Split(i, t, l, r) => if (f(i) <= t) predictTree(l, f) else predictTree(r, f)
  }

  /** Population variance from a count, a sum and a sum of squares. */
  private def variance(n: Int, s: Double, s2: Double): Double =
    if (n == 0) 0.0 else { val m = s / n; s2 / n - m * m }

  /** The distinct values of feature `f` over `idx`, ascending. */
  private def distinctSorted(xs: Array[Array[Double]], idx: Array[Int], f: Int): Array[Double] = {
    val v = new Array[Double](idx.length)
    var k = 0
    while (k < idx.length) { v(k) = xs(idx(k))(f); k += 1 }
    java.util.Arrays.sort(v)
    var n = 0; k = 0
    while (k < v.length) {
      if (n == 0 || java.lang.Double.compare(v(n - 1), v(k)) != 0) { v(n) = v(k); n += 1 }
      k += 1
    }
    java.util.Arrays.copyOf(v, n)
  }

  private def buildTree(xs: Array[Array[Double]], y: Array[Double], idx: Array[Int],
                        depth: Int, maxDepth: Int, minLeaf: Int, mtry: Int,
                        rnd: Random, imp: Array[Double]): Node = {
    if (idx.isEmpty) return Leaf(0.0)
    val mean = idx.map(y).sum / idx.length
    if (depth >= maxDepth || idx.length < 2 * minLeaf) return Leaf(mean)
    var s = 0.0; var s2 = 0.0
    idx.foreach { i => s += y(i); s2 += y(i) * y(i) }
    val parentVar = variance(idx.length, s, s2)
    if (parentVar < 1e-12) return Leaf(mean)

    val nFeat = xs.head.length
    val feats = rnd.shuffle((0 until nFeat).toList).take(mtry)
    var bestGain = 0.0; var bestF = -1; var bestT = 0.0
    feats.foreach { f =>
      val vals = distinctSorted(xs, idx, f)
      if (vals.length > 1) {
        // up to 16 candidate thresholds per feature
        val step = math.max(1, vals.length / 16)
        var k = 0
        while (k < vals.length - 1) {
          val t = (vals(k) + vals(k + 1)) / 2
          // both sides' count, sum and sum of squares in one pass, in idx order
          var nl = 0; var sl = 0.0; var s2l = 0.0
          var nr = 0; var sr = 0.0; var s2r = 0.0
          var q = 0
          while (q < idx.length) {
            val i = idx(q); val yi = y(i)
            if (xs(i)(f) <= t) { nl += 1; sl += yi; s2l += yi * yi }
            else { nr += 1; sr += yi; s2r += yi * yi }
            q += 1
          }
          if (nl >= minLeaf && nr >= minLeaf) {
            val gain = parentVar -
              (nl * variance(nl, sl, s2l) + nr * variance(nr, sr, s2r)) / idx.length
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
      val inBag = new Array[Boolean](n)
      bag.foreach(inBag(_) = true)
      val tree = buildTree(xs, y, bag, 0, maxDepth, minLeaf, mtry, rnd, imp)
      (0 until n).foreach { i =>
        if (!inBag(i)) { oobSum(i) += predictTree(tree, xs(i)); oobCnt(i) += 1 }
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

  /** Train with OOB-tuned depth/leaf hyperparameters (paper: "learn the
    * hyperparameters using the out-of-bag error").
    */
  def train(xs: Array[Array[Double]], y: Array[Double],
            nTrees: Int = 40, seed: Long = 9): Model = {
    require(xs.nonEmpty, "empty training set")
    val grid = Seq((4, 4), (6, 2), (8, 2))
    grid.map { case (d, l) => trainOne(xs, y, nTrees, d, l, seed) }.minBy(_._2)._1
  }
}
