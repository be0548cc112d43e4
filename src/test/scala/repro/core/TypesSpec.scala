package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Unit tests for value normalization, parsing, the six data-type similarity
  * functions, equivalence thresholds and fusers.
  */
class TypesSpec extends AnyFunSuite {
  import DataType._

  // ---- normalization -------------------------------------------------------
  test("normalize lowercases, trims and collapses whitespace") {
    assert(Values.normalize("  Foo   BAR ") == "foo bar")
  }
  test("normalize strips surrounding punctuation") {
    assert(Values.normalize("\"Springfield\",") == "springfield")
  }
  test("normalize of null is empty") {
    assert(Values.normalize(null) == "")
  }

  // ---- date parsing --------------------------------------------------------
  test("parseDate handles ISO dates") {
    assert(Values.parseDate("1987-03-12").contains((1987, 3, 12)))
  }
  test("parseDate handles US dates") {
    assert(Values.parseDate("3/12/1987").contains((1987, 3, 12)))
  }
  test("parseDate handles textual dates") {
    assert(Values.parseDate("March 12, 1987").contains((1987, 3, 12)))
    assert(Values.parseDate("march 12 1987").contains((1987, 3, 12)))
  }
  test("parseDate handles bare years as year granularity") {
    assert(Values.parseDate("1987").contains((1987, 0, 0)))
  }
  test("parseDate rejects non-dates and out-of-range years") {
    assert(Values.parseDate("hello").isEmpty)
    assert(Values.parseDate("123").isEmpty)
  }

  // ---- quantity parsing ----------------------------------------------------
  test("parseQuantity strips thousand separators") {
    assert(Values.parseQuantity("12,345").contains(12345.0))
  }
  test("parseQuantity strips trailing units") {
    assert(Values.parseQuantity("85 kg").contains(85.0))
  }
  test("parseQuantity handles decimals and rejects text") {
    assert(Values.parseQuantity("3.5").contains(3.5))
    assert(Values.parseQuantity("abc").isEmpty)
  }

  // ---- type similarities ---------------------------------------------------
  test("Text similarity is fuzzy") {
    assert(TypeSim.sim(Text, "Springfield", "springfeild") > 0.7)
    assert(TypeSim.equal(Text, "Springfield", "SPRINGFIELD"))
  }
  test("NominalString requires exact normalized equality") {
    assert(TypeSim.equal(NominalString, "QB ", "qb"))
    assert(!TypeSim.equal(NominalString, "qb", "rb"))
  }
  test("InstanceRef matches by high label similarity") {
    assert(TypeSim.equal(InstanceRef, "Dallas Wolves", "dallas wolves"))
    assert(!TypeSim.equal(InstanceRef, "Dallas Wolves", "Denver Hawks"))
  }
  test("Date: same day equal, same year with year granularity equal") {
    assert(TypeSim.equal(Date, "1987-03-12", "March 12, 1987"))
    assert(TypeSim.equal(Date, "1987", "1987-03-12"))
    assert(!TypeSim.equal(Date, "1987-03-12", "1987-03-13"))
    assert(!TypeSim.equal(Date, "1986", "1987-01-01"))
  }
  test("Quantity: within 5% tolerance equal, outside not") {
    assert(TypeSim.equal(Quantity, "100", "103"))
    assert(!TypeSim.equal(Quantity, "100", "120"))
    assert(TypeSim.equal(Quantity, "12,000", "12000"))
  }
  test("NominalInt: closeness is NOT similarity") {
    assert(TypeSim.equal(NominalInt, "7", "7"))
    assert(!TypeSim.equal(NominalInt, "7", "8"))
  }
  test("equalFor uses the property's type, Text for an unknown property") {
    val schema: Map[String, DataType] = Map("runtime" -> Quantity)
    assert(TypeSim.equalFor(schema, "runtime", "200", "201"))
    assert(TypeSim.equalFor(schema, "unknown", "Blue Dreams", "blue dreams"))
    assert(!TypeSim.equalFor(schema, "unknown", "200", "201"))
  }
  test("all sims are within [0,1]") {
    for (dt <- DataType.all) {
      val s = TypeSim.sim(dt, "foo 1987", "bar 2001")
      assert(s >= 0.0 && s <= 1.0, s"$dt sim out of range: $s")
    }
  }

  // ---- fusers ---------------------------------------------------------------
  test("fuse text by weighted majority") {
    val fused = TypeSim.fuse(Text, Seq(("alpha", 1.0), ("alpha", 1.0), ("beta", 1.0)))
    assert(Values.normalize(fused) == "alpha")
  }
  test("fuse majority respects weights") {
    val fused = TypeSim.fuse(Text, Seq(("alpha", 0.1), ("beta", 5.0)))
    assert(Values.normalize(fused) == "beta")
  }
  test("fuse quantity by weighted median") {
    val fused = TypeSim.fuse(Quantity, Seq(("10", 1.0), ("20", 1.0), ("30", 1.0)))
    assert(Values.parseQuantity(fused).contains(20.0))
  }
  test("fuse quantity weighted median respects weights") {
    val fused = TypeSim.fuse(Quantity, Seq(("10", 5.0), ("20", 1.0), ("30", 1.0)))
    assert(Values.parseQuantity(fused).contains(10.0))
  }
  test("fuse date by weighted median of encoded dates") {
    val fused = TypeSim.fuse(Date, Seq(("1987-03-12", 1.0), ("1987-03-12", 1.0), ("1990-01-01", 1.0)))
    assert(Values.parseDate(fused).contains((1987, 3, 12)))
  }

  // ---- data type registry ---------------------------------------------------
  test("fromName round-trips every data type") {
    DataType.all.foreach(dt => assert(DataType.fromName(dt.name) == dt))
  }
  test("fromName rejects unknown names") {
    intercept[IllegalArgumentException](DataType.fromName("nope"))
  }
}
