package repro.core

import org.scalacheck.{Gen, Prop, Properties}

/** ScalaCheck property suites for value parsing and type similarity
  * (runs under sbt's native ScalaCheck integration).
  */
object ValueProps extends Properties("Values") {
  val yearGen: Gen[Int] = Gen.choose(1200, 2099)
  val monthGen: Gen[Int] = Gen.choose(1, 12)
  val dayGen: Gen[Int] = Gen.choose(1, 28)

  property("ISO dates round-trip through parseDate") =
    Prop.forAll(yearGen, monthGen, dayGen) { (y, m, d) =>
      Values.parseDate(f"$y%04d-$m%02d-$d%02d").contains((y, m, d))
    }

  property("US dates round-trip through parseDate") =
    Prop.forAll(yearGen, monthGen, dayGen) { (y, m, d) =>
      Values.parseDate(s"$m/$d/$y").contains((y, m, d))
    }

  property("quantities with separators parse to the same value") =
    Prop.forAll(Gen.choose(10000, 99999999)) { n =>
      val grouped = f"$n%,d"
      Values.parseQuantity(grouped).contains(n.toDouble)
    }

  property("normalize is idempotent") =
    Prop.forAll(Gen.asciiPrintableStr) { s =>
      Values.normalize(Values.normalize(s)) == Values.normalize(s)
    }

  /** Letters (some outside ASCII), digits, whitespace (with U+00A0), quotes,
    * brackets and the punctuation normalize strips.
    */
  val messy: Gen[String] = Gen.listOf(Gen.frequency(
    5 -> Gen.alphaChar, 2 -> Gen.numChar,
    3 -> Gen.oneOf(' ', '\t', '\n', '\u00a0'),
    2 -> Gen.oneOf('"', '\'', '`', '(', ')', '[', ']', ',', '.', '-'),
    1 -> Gen.oneOf('É', 'ß', 'İ', 'ñ'))).map(_.mkString)

  property("tokenize ignores normalize") = Prop.forAll(messy) { s =>
    TextSim.tokenize(Values.normalize(s)) == TextSim.tokenize(s)
  }

  property("mongeElkan ignores normalize") = Prop.forAll(messy, messy) { (a, b) =>
    TextSim.mongeElkan(Values.normalize(a), Values.normalize(b)) == TextSim.mongeElkan(a, b)
  }

  property("normalize equals its String.replaceAll chain") = Prop.forAll(messy) { s =>
    Values.normalize(s) == s.toLowerCase
      .replaceAll("""[ ]""", " ")
      .replaceAll("""\s+""", " ")
      .replaceAll("""^[\x00-\x20"'`\(\[]+|[\x00-\x20"'`\)\],\.]+$""", "")
  }

  /** [[messy]] with digits, separators and the unit suffixes parseQuantity strips. */
  val quantityLike: Gen[String] = for {
    pre <- Gen.oneOf(Gen.const(""), messy)
    digits <- Gen.listOf(Gen.oneOf(Gen.numChar, Gen.const(',')))
    unit <- Gen.oneOf("", " m", "kg", " people", " sec.", "lbs", " in", "s")
  } yield pre + digits.mkString + unit

  property("parseQuantity equals its String.replaceAll chain") =
    Prop.forAll(Gen.oneOf(messy, quantityLike)) { s =>
      val stripped = Values.normalize(s).replaceAll(",", "")
        .replaceAll("""\s*(m|kg|cm|km|ft|lb|lbs|in|people|s|sec|min)\.?$""", "")
      val expected =
        try { if (stripped.isEmpty) None else Some(stripped.toDouble) }
        catch { case _: NumberFormatException => None }
      Values.parseQuantity(s) == expected
    }

  property("date equality is reflexive across formats") =
    Prop.forAll(yearGen, monthGen, dayGen) { (y, m, d) =>
      TypeSim.equal(DataType.Date, f"$y%04d-$m%02d-$d%02d", s"$m/$d/$y")
    }

  property("quantity sim is symmetric") =
    Prop.forAll(Gen.choose(1, 1000000), Gen.choose(1, 1000000)) { (a, b) =>
      TypeSim.sim(DataType.Quantity, a.toString, b.toString) ==
        TypeSim.sim(DataType.Quantity, b.toString, a.toString)
    }

  property("quantity equal iff within 5% relative difference") =
    Prop.forAll(Gen.choose(100, 1000000), Gen.choose(0.0, 0.2)) { (a, frac) =>
      val b = (a * (1.0 + frac)).round
      val expect = math.abs(a - b).toDouble / math.max(a, b) <= 0.05 + 1e-12
      TypeSim.equal(DataType.Quantity, a.toString, b.toString) == expect
    }

  property("nominal int equality is exact") =
    Prop.forAll(Gen.choose(0, 999), Gen.choose(0, 999)) { (a, b) =>
      TypeSim.equal(DataType.NominalInt, a.toString, b.toString) == (a == b)
    }
}

/** ScalaCheck properties for the text-similarity primitives. */
object TextSimProps extends Properties("TextSim") {
  val word: Gen[String] = Gen.nonEmptyListOf(Gen.alphaLowerChar).map(_.mkString.take(10))
  val phrase: Gen[String] = Gen.nonEmptyListOf(word).map(_.take(4).mkString(" "))

  property("mongeElkan(s, s) == 1") = Prop.forAll(phrase)(s => TextSim.mongeElkan(s, s) == 1.0)
  property("mongeElkan in [0,1]") = Prop.forAll(phrase, phrase) { (a, b) =>
    val s = TextSim.mongeElkan(a, b); s >= 0.0 && s <= 1.0
  }
  property("levenshtein(s, s) == 0") = Prop.forAll(phrase)(s => TextSim.levenshtein(s, s) == 0)
  property("levenshtein >= length difference") = Prop.forAll(phrase, phrase) { (a, b) =>
    TextSim.levenshtein(a, b) >= math.abs(a.length - b.length)
  }
  property("cosineBinary bounded") = Prop.forAll(Gen.listOf(word), Gen.listOf(word)) { (a, b) =>
    val s = TextSim.cosineBinary(a.toSet, b.toSet); s >= 0.0 && s <= 1.0
  }
}
