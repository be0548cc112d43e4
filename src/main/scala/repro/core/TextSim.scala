package repro.core

/** String similarity primitives used throughout the pipeline:
  * Levenshtein similarity, Monge-Elkan (with Levenshtein inner similarity,
  * as in the paper's LABEL metrics), tokenization, and cosine similarity
  * over binary term sets (the BOW metrics).
  */
object TextSim {

  /** Levenshtein edit distance (iterative two-row DP). */
  def levenshtein(a: String, b: String): Int = {
    if (a.isEmpty) return b.length
    if (b.isEmpty) return a.length
    var prev = Array.tabulate(b.length + 1)(identity)
    var curr = new Array[Int](b.length + 1)
    var i = 1
    while (i <= a.length) {
      curr(0) = i
      var j = 1
      while (j <= b.length) {
        val cost = if (a.charAt(i - 1) == b.charAt(j - 1)) 0 else 1
        curr(j) = math.min(math.min(curr(j - 1) + 1, prev(j) + 1), prev(j - 1) + cost)
        j += 1
      }
      val t = prev; prev = curr; curr = t
      i += 1
    }
    prev(b.length)
  }

  /** Levenshtein similarity in [0,1]. */
  def levenshteinSim(a: String, b: String): Double = {
    val m = math.max(a.length, b.length)
    if (m == 0) 1.0 else 1.0 - levenshtein(a, b).toDouble / m
  }

  /** Lowercase letter and digit runs; none for null. Normalizing first
    * changes no token (DESIGN.md, "Normalization rule").
    */
  def tokenize(s: String): Seq[String] =
    if (s == null) Seq.empty
    else s.toLowerCase.split("""[^\p{L}\p{N}]+""").filter(_.nonEmpty).toSeq

  /** Monge-Elkan similarity with Levenshtein as inner similarity.
    * Symmetrized (average of both directions) so row order is irrelevant.
    */
  def mongeElkan(a: String, b: String): Double = {
    val ta = tokenize(a); val tb = tokenize(b)
    if (ta.isEmpty || tb.isEmpty) return if (ta == tb) 1.0 else 0.0
    def oneWay(xs: Seq[String], ys: Seq[String]): Double =
      xs.map(x => ys.map(y => levenshteinSim(x, y)).max).sum / xs.size
    (oneWay(ta, tb) + oneWay(tb, ta)) / 2.0
  }

  /** Best Monge-Elkan over all pairs of two label sets; 0 if one is empty. */
  def maxMongeElkan(as: Seq[String], bs: Seq[String]): Double =
    (for (a <- as; b <- bs) yield mongeElkan(a, b)).foldLeft(0.0)(math.max)

  /** Cosine similarity between binary term sets. */
  def cosineBinary(a: Set[String], b: Set[String]): Double = {
    if (a.isEmpty || b.isEmpty) 0.0
    else a.intersect(b).size / math.sqrt(a.size.toDouble * b.size)
  }

  /** Cosine similarity between sparse weighted vectors. */
  def cosineSparse(a: Map[Long, Double], b: Map[Long, Double]): Double = {
    if (a.isEmpty || b.isEmpty) return 0.0
    val (small, big) = if (a.size <= b.size) (a, b) else (b, a)
    var dot = 0.0
    small.foreach { case (k, v) => big.get(k).foreach(w => dot += v * w) }
    val na = math.sqrt(a.valuesIterator.map(v => v * v).sum)
    val nb = math.sqrt(b.valuesIterator.map(v => v * v).sum)
    if (na == 0.0 || nb == 0.0) 0.0 else dot / (na * nb)
  }
}
