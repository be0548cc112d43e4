package repro.clustering

import repro.core.{DataType, TextSim, TypeSim}
import repro.learn.MetricLayout

/** The six row-similarity metrics (paper Section 3.2) as one feature vector:
  *
  *   0 LABEL        Monge-Elkan(Levenshtein) on row labels
  *   1 BOW          cosine over binary term vectors of all row cells
  *   2 PHI          cosine over the tables' PHI label-correlation vectors
  *   3 ATTRIBUTE    avg type-equality over overlapping mapped values
  *   4   +conf      number of overlapping value pairs
  *   5 IMPLICIT_ATT weighted agreement of implicit/explicit property-values
  *   6   +conf      sum of compared implicit-attribute scores
  *   7 SAME_TABLE   0.0 when both rows share a table, else 1.0
  */
object RowSimilarity extends MetricLayout(Seq(
    "LABEL" -> false, "BOW" -> false, "PHI" -> false,
    "ATTRIBUTE" -> true, "IMPLICIT_ATT" -> true, "SAME_TABLE" -> false)) {

  def features(a: RowProfile, b: RowProfile,
               schema: Map[String, DataType]): Array[Double] = {
    val f = new Array[Double](dim)
    f(0) = TextSim.mongeElkan(a.normLabel, b.normLabel)
    f(1) = TextSim.cosineBinary(a.tokens.toSet, b.tokens.toSet)
    f(2) = TextSim.cosineSparse(a.phi, b.phi)

    // ATTRIBUTE: overlapping mapped values
    val shared = a.values.keySet.intersect(b.values.keySet)
    if (shared.nonEmpty) {
      val eq = shared.toSeq.map { p =>
        val dt = schema.getOrElse(p, DataType.Text)
        if (TypeSim.equal(dt, a.values(p), b.values(p))) 1.0 else 0.0
      }
      f(3) = eq.sum / eq.size
      f(4) = eq.size.toDouble
    }

    // IMPLICIT_ATT: compare a's table-level combos against b (both directions)
    var implSum = 0.0; var implW = 0.0
    def compare(x: RowProfile, y: RowProfile): Unit =
      x.implicitAtts.foreach { case (combo, w) =>
        val i = combo.indexOf(RowProfiles.Sep)
        if (i > 0) {
          val p = combo.substring(0, i); val v = combo.substring(i + 1)
          val dt = schema.getOrElse(p, DataType.Text)
          val other: Option[String] = y.values.get(p).orElse {
            y.implicitAtts.keysIterator.find(_.startsWith(p + RowProfiles.Sep))
              .map(_.substring(i + 1))
          }
          other.foreach { ov =>
            implW += w
            if (TypeSim.equal(dt, v, ov)) implSum += w
          }
        }
      }
    compare(a, b); compare(b, a)
    if (implW > 0) { f(5) = implSum / implW; f(6) = implW }

    f(7) = if (a.tableId == b.tableId) 0.0 else 1.0
    f
  }
}
