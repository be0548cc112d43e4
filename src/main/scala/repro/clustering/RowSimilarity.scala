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

    val (attr, attrConf) = TypeSim.agreement(schema, a.values, b.values)
    f(3) = attr; f(4) = attrConf
    // IMPLICIT_ATT: each row's table-level combos against the other row
    val (impl, implConf) = RowProfiles.implicitAgreement(schema,
      (a.implicitAtts, p => RowProfiles.valueOf(b, p)),
      (b.implicitAtts, p => RowProfiles.valueOf(a, p)))
    f(5) = impl; f(6) = implConf

    f(7) = if (a.tableId == b.tableId) 0.0 else 1.0
    f
  }
}
