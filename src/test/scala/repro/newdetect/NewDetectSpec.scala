package repro.newdetect

import org.scalatest.funsuite.AnyFunSuite
import repro.core.DataType
import repro.fusion.Entity
import repro.kb.KBInstanceLocal

/** Unit tests for entity-to-instance similarity metrics, candidate
  * selection and the two-threshold classification rule.
  */
class NewDetectSpec extends AnyFunSuite {
  import DataType._

  private val parents = Map("Song" -> Seq("MusicalWork", "Work"),
                            "Album" -> Seq("MusicalWork", "Work"),
                            "Settlement" -> Seq("PopulatedPlace", "Place"))
  private val schema: Map[String, DataType] =
    Map("runtime" -> Quantity, "genre" -> NominalString, "musicalArtist" -> InstanceRef)

  private def entity(labels: Seq[String], facts: Map[String, String] = Map.empty,
                     impl: Map[String, Double] = Map.empty) =
    Entity(1L, "Song", labels, Seq(1L), labels.flatMap(repro.core.TextSim.tokenize),
           impl, facts)

  private def inst(uri: String, cls: String, labels: Seq[String],
                   facts: Map[String, String] = Map.empty, pop: Long = 10) =
    KBInstanceLocal(uri, cls, parents.getOrElse(cls, Nil), labels, pop, facts,
                    (labels ++ facts.values).flatMap(repro.core.TextSim.tokenize).distinct)

  test("LABEL metric is the max pairwise label similarity") {
    val f = EntitySimilarity.features(entity(Seq("Blue Dreams")),
      inst("u1", "Song", Seq("blue dreams", "something else")), 1.0, schema, parents)
    assert(f(0) == 1.0)
  }
  test("TYPE metric is 1 for same class, lower for sibling class") {
    val same = EntitySimilarity.features(entity(Seq("x")),
      inst("u1", "Song", Seq("x")), 1.0, schema, parents)
    val sibling = EntitySimilarity.features(entity(Seq("x")),
      inst("u2", "Album", Seq("x")), 1.0, schema, parents)
    assert(same(1) == 1.0)
    assert(sibling(1) < 1.0 && sibling(1) > 0.0)
  }
  test("ATTRIBUTE metric averages type-equality over shared facts") {
    val f = EntitySimilarity.features(
      entity(Seq("x"), Map("runtime" -> "200", "genre" -> "rock")),
      inst("u1", "Song", Seq("x"), Map("runtime" -> "201", "genre" -> "jazz")),
      1.0, schema, parents)
    assert(math.abs(f(3) - 0.5) < 1e-9) // runtime equal (within 5%), genre not
    assert(f(4) == 2.0)
  }
  test("IMPLICIT_ATT metric weights agreement by implicit-attribute confidence") {
    val f = EntitySimilarity.features(
      entity(Seq("x"), impl = Map("genre|rock" -> 0.8)),
      inst("u1", "Song", Seq("x"), Map("genre" -> "rock")),
      1.0, schema, parents)
    assert(f(5) == 1.0 && math.abs(f(6) - 0.8) < 1e-9)
  }
  test("POPULARITY feature is passed through") {
    val f = EntitySimilarity.features(entity(Seq("x")), inst("u1", "Song", Seq("x")),
      0.25, schema, parents)
    assert(f(7) == 0.25)
  }

  // ---- candidate selection ----------------------------------------------------
  private def selector(instances: KBInstanceLocal*) =
    new CandidateSelector(instances.toIndexedSeq, schema, parents)

  test("candidateFeatures finds same-class instances by token overlap") {
    val cands = selector(
      inst("u1", "Song", Seq("blue dreams")),
      inst("u2", "Song", Seq("red fire")),
      inst("u3", "Settlement", Seq("blue dreams"))) // wrong branch of hierarchy
      .features(entity(Seq("Blue Dreams")))
    assert(cands.map(_._1) == Seq("u1"), s"got ${cands.map(_._1)}")
  }
  test("candidateFeatures ranks popularity within the candidate set") {
    val cands = selector(
      inst("u1", "Song", Seq("blue dreams"), pop = 1000),
      inst("u2", "Song", Seq("blue dreams"), pop = 10))
      .features(entity(Seq("blue dreams"))).toMap
    assert(cands("u1")(7) == 1.0)
    assert(cands("u2")(7) == 0.0)
  }
  test("an entity with no candidates is detected as new") {
    assert(NewDetector.detectionFor(Seq.empty, -0.5, 0.5) == DetectedNew)
  }

  // ---- classification rule -------------------------------------------------------
  test("two-threshold rule: new below tNew, existing above tMatch, else undecided") {
    val scored = Seq(("u1", 0.3), ("u2", 0.6))
    assert(NewDetector.detectionFor(scored, 0.7, 0.9) == DetectedNew)
    assert(NewDetector.detectionFor(scored, 0.1, 0.5) == DetectedExisting("u2", 0.6))
    assert(NewDetector.detectionFor(scored, 0.1, 0.9) == Undecided)
  }
  test("learnThresholds separates clean positives and negatives") {
    val learn = Seq(
      (1L, Seq(("u1", 0.9)), Some("u1")),
      (2L, Seq(("u2", 0.8)), Some("u2")),
      (3L, Seq(("u3", -0.7)), None),
      (4L, Seq(("u4", -0.9)), None))
    val (tn, tm) = NewDetector.learnThresholds(learn)
    learn.foreach { case (_, scored, truth) =>
      val det = NewDetector.detectionFor(scored, tn, tm)
      truth match {
        case Some(u) => assert(det == DetectedExisting(u, scored.head._2))
        case None    => assert(det == DetectedNew)
      }
    }
  }
  test("tokenIndex maps every instance label token") {
    val idx = selector(inst("u1", "Song", Seq("blue dreams"))).tokenIndex
    assert(idx("blue") == Seq(0) && idx("dreams") == Seq(0))
  }
}
