package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Unit tests for the string-similarity primitives. Property-style checks
  * use seeded random sampling (the scalatest/scalacheck bridge artifact is
  * not available offline; scalacheck itself is used in dedicated Properties
  * suites).
  */
class TextSimSpec extends AnyFunSuite {
  private def randStrings(n: Int, maxLen: Int, seed: Long): Seq[String] = {
    val r = new Random(seed)
    (0 until n).map(_ => r.alphanumeric.take(r.nextInt(maxLen)).mkString)
  }

  test("levenshtein: identical strings have distance 0") {
    assert(TextSim.levenshtein("kitten", "kitten") == 0)
  }
  test("levenshtein: classic kitten/sitting distance is 3") {
    assert(TextSim.levenshtein("kitten", "sitting") == 3)
  }
  test("levenshtein: empty vs non-empty is the other's length") {
    assert(TextSim.levenshtein("", "abc") == 3)
    assert(TextSim.levenshtein("abc", "") == 3)
  }
  test("levenshtein: single substitution costs 1") {
    assert(TextSim.levenshtein("cat", "car") == 1)
  }
  test("levenshtein is symmetric (100 random samples)") {
    val xs = randStrings(100, 15, 1); val ys = randStrings(100, 15, 2)
    xs.zip(ys).foreach { case (a, b) =>
      assert(TextSim.levenshtein(a, b) == TextSim.levenshtein(b, a))
    }
  }
  test("levenshtein satisfies the triangle inequality (100 random samples)") {
    val xs = randStrings(100, 12, 3); val ys = randStrings(100, 12, 4); val zs = randStrings(100, 12, 5)
    (xs, ys, zs).zipped.foreach { (a, b, c) =>
      assert(TextSim.levenshtein(a, c) <= TextSim.levenshtein(a, b) + TextSim.levenshtein(b, c))
    }
  }
  test("levenshteinSim is in [0,1] and 1 iff equal (100 random samples)") {
    val xs = randStrings(100, 20, 6); val ys = randStrings(100, 20, 7)
    xs.zip(ys).foreach { case (a, b) =>
      val s = TextSim.levenshteinSim(a, b)
      assert(s >= 0.0 && s <= 1.0)
      if (a == b) assert(s == 1.0)
      if (s == 1.0) assert(a == b)
    }
  }

  test("tokenize splits on punctuation and lowercases") {
    assert(TextSim.tokenize("John O'Brien-Smith") == Seq("john", "o", "brien", "smith"))
  }
  test("tokenize drops empty tokens") {
    assert(TextSim.tokenize("  --  ") == Seq.empty)
  }
  test("tokenize keeps digits") {
    assert(TextSim.tokenize("route 66") == Seq("route", "66"))
  }

  test("mongeElkan: identical token sets score 1.0") {
    assert(TextSim.mongeElkan("james smith", "james smith") == 1.0)
  }
  test("mongeElkan: token order does not matter") {
    assert(TextSim.mongeElkan("smith james", "james smith") == 1.0)
  }
  test("mongeElkan tolerates a small typo") {
    // "smith" vs "smiht" is a transposition: 2 edits over 5 chars
    assert(TextSim.mongeElkan("james smith", "james smiht") >= 0.8)
  }
  test("mongeElkan: disjoint strings score low") {
    assert(TextSim.mongeElkan("aaa bbb", "xyz qrs") < 0.5)
  }
  test("mongeElkan: both empty -> 1, one empty -> 0") {
    assert(TextSim.mongeElkan("", "") == 1.0)
    assert(TextSim.mongeElkan("a", "") == 0.0)
  }
  test("mongeElkan is symmetric (100 random samples)") {
    val xs = randStrings(100, 15, 8); val ys = randStrings(100, 15, 9)
    xs.zip(ys).foreach { case (a, b) =>
      assert(math.abs(TextSim.mongeElkan(a, b) - TextSim.mongeElkan(b, a)) < 1e-12)
    }
  }

  test("tokenize of null gives no tokens") {
    assert(TextSim.tokenize(null).isEmpty)
  }
  test("maxMongeElkan: best label pair, 0 when a set is empty") {
    assert(TextSim.maxMongeElkan(Seq("Blue Dreams", "x"), Seq("red", "blue dreams")) == 1.0)
    assert(TextSim.maxMongeElkan(Seq("blue"), Nil) == 0.0)
  }

  test("cosineBinary: identical sets -> 1, disjoint -> 0") {
    assert(math.abs(TextSim.cosineBinary(Set("a", "b"), Set("a", "b")) - 1.0) < 1e-12)
    assert(TextSim.cosineBinary(Set("a"), Set("b")) == 0.0)
  }
  test("cosineBinary: empty set -> 0") {
    assert(TextSim.cosineBinary(Set.empty, Set("a")) == 0.0)
  }
  test("cosineBinary: half overlap") {
    assert(math.abs(TextSim.cosineBinary(Set("a", "b"), Set("a", "c")) - 0.5) < 1e-12)
  }

  test("cosineSparse: identical vectors -> 1") {
    val v = Map(1L -> 0.5, 2L -> -0.2)
    assert(math.abs(TextSim.cosineSparse(v, v) - 1.0) < 1e-9)
  }
  test("cosineSparse: orthogonal vectors -> 0") {
    assert(TextSim.cosineSparse(Map(1L -> 1.0), Map(2L -> 1.0)) == 0.0)
  }
  test("cosineSparse: opposite vectors -> -1") {
    assert(math.abs(TextSim.cosineSparse(Map(1L -> 1.0), Map(1L -> -1.0)) + 1.0) < 1e-9)
  }
  test("cosineSparse: empty vector -> 0") {
    assert(TextSim.cosineSparse(Map.empty, Map(1L -> 1.0)) == 0.0)
  }
}
