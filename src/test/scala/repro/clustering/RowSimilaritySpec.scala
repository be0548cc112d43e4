package repro.clustering

import org.scalatest.funsuite.AnyFunSuite
import repro.core.DataType
import repro.learn.MetricLayout
import repro.newdetect.EntitySimilarity

/** Unit tests for the six row-similarity metrics on hand-built profiles. */
class RowSimilaritySpec extends AnyFunSuite {
  import DataType._
  private val schema: Map[String, DataType] =
    Map("runtime" -> Quantity, "genre" -> NominalString, "team" -> InstanceRef)

  private def prof(rowKey: Long, tableId: Long, label: String,
                   tokens: Seq[String] = Seq.empty,
                   phi: Map[Long, Double] = Map.empty,
                   values: Map[String, String] = Map.empty,
                   impl: Map[String, Double] = Map.empty) =
    RowProfile(rowKey, tableId, "Song", label, repro.core.Values.normalize(label),
               if (tokens.isEmpty) repro.core.TextSim.tokenize(label) else tokens,
               phi, values, Map.empty, impl)

  test("LABEL: identical labels score 1") {
    val f = RowSimilarity.features(prof(1, 1, "blue dreams"), prof(2, 2, "Blue Dreams"), schema)
    assert(f(0) == 1.0)
  }
  test("LABEL: unrelated labels score low") {
    val f = RowSimilarity.features(prof(1, 1, "blue dreams"), prof(2, 2, "xyzzy qwerty"), schema)
    assert(f(0) < 0.5)
  }
  test("BOW: cosine over row tokens") {
    val f = RowSimilarity.features(
      prof(1, 1, "x", tokens = Seq("a", "b")), prof(2, 2, "x", tokens = Seq("a", "c")), schema)
    assert(math.abs(f(1) - 0.5) < 1e-9)
  }
  test("PHI: cosine over table vectors") {
    val f = RowSimilarity.features(
      prof(1, 1, "x", phi = Map(1L -> 1.0)), prof(2, 2, "x", phi = Map(1L -> 1.0)), schema)
    assert(math.abs(f(2) - 1.0) < 1e-9)
  }
  test("ATTRIBUTE: equality over overlapping mapped values with confidence") {
    val a = prof(1, 1, "x", values = Map("runtime" -> "200", "genre" -> "rock"))
    val b = prof(2, 2, "x", values = Map("runtime" -> "201", "genre" -> "jazz", "team" -> "t"))
    val f = RowSimilarity.features(a, b, schema)
    assert(math.abs(f(3) - 0.5) < 1e-9) // runtime within tolerance, genre unequal
    assert(f(4) == 2.0)                  // two overlapping pairs
  }
  test("ATTRIBUTE: no overlap -> score 0, confidence 0") {
    val f = RowSimilarity.features(
      prof(1, 1, "x", values = Map("runtime" -> "200")),
      prof(2, 2, "x", values = Map("genre" -> "rock")), schema)
    assert(f(3) == 0.0 && f(4) == 0.0)
  }
  test("IMPLICIT_ATT: implicit attribute vs explicit value of the other row") {
    val a = prof(1, 1, "x", impl = Map("genre|rock" -> 0.8))
    val b = prof(2, 2, "x", values = Map("genre" -> "Rock"))
    val f = RowSimilarity.features(a, b, schema)
    assert(f(5) == 1.0)
    assert(math.abs(f(6) - 0.8) < 1e-9)
  }
  test("IMPLICIT_ATT: implicit vs implicit of the other table") {
    val a = prof(1, 1, "x", impl = Map("genre|rock" -> 0.6))
    val b = prof(2, 2, "x", impl = Map("genre|jazz" -> 0.9))
    val f = RowSimilarity.features(a, b, schema)
    assert(f(5) == 0.0 && f(6) > 0.0) // compared but unequal
  }
  test("SAME_TABLE is 0 within a table, 1 across tables") {
    assert(RowSimilarity.features(prof(1, 5, "x"), prof(2, 5, "y"), schema)(7) == 0.0)
    assert(RowSimilarity.features(prof(1, 5, "x"), prof(2, 6, "y"), schema)(7) == 1.0)
  }
  test("features are symmetric in the rows") {
    val a = prof(1, 1, "blue dream", values = Map("runtime" -> "200"),
                 impl = Map("genre|rock" -> 0.5))
    val b = prof(2, 2, "blue dreams", values = Map("runtime" -> "205", "genre" -> "rock"))
    val f1 = RowSimilarity.features(a, b, schema)
    val f2 = RowSimilarity.features(b, a, schema)
    f1.indices.foreach(i => assert(math.abs(f1(i) - f2(i)) < 1e-9, s"feature $i"))
  }
  test("featureIndices includes confidences, scoreIndices does not") {
    Seq[MetricLayout](RowSimilarity, EntitySimilarity).foreach { layout =>
      assert(layout.featureIndices(Seq("ATTRIBUTE")).toSeq == Seq(3, 4))
      assert(layout.scoreIndices(Seq("ATTRIBUTE")).toSeq == Seq(3))
      assert(layout.featureIndices(layout.metricNames).length == layout.dim)
      assert(layout.dim == 8)
      assert(layout.metricIdx("IMPLICIT_ATT") == (5, Some(6)))
      assert(layout.metricIdx(layout.metricNames.last) == (7, None))
    }
  }
}
