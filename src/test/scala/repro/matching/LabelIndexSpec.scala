package repro.matching

import repro.{SparkSpec, TestWorld}
import repro.core.TextSim
import repro.kb.KBInstance
import TableClassMatcher.{LabelIndex, maxKbTokenDf, minLabelSim, topKPerRow}

/** The KB label index of table-to-class matching on hand-built KBs, and its
  * row candidates against the join-based reference on the test world.
  */
class LabelIndexSpec extends SparkSpec {

  private def inst(uri: String, labels: String*): KBInstance =
    KBInstance(uri, "C", Nil, labels.head, labels.tail, 1L)

  test("the stop-token cap counts a token once per repeat within a label") {
    // "foo" is in half as many labels as the cap, twice in each.
    val twice = (1 to maxKbTokenDf / 2).map(i => inst(s"u$i", s"foo foo n$i"))
    assert(LabelIndex(twice).candidates("foo").nonEmpty)
    assert(LabelIndex(twice :+ inst("extra", "foo")).candidates("foo").isEmpty)
  }

  test("blank and punctuation-only labels give no candidates") {
    val index = LabelIndex(Seq(inst("a", "", "--"), inst("b", "!!"), inst("c", "alpha")))
    Seq("", " ", "--", "!!", "?").foreach(l => assert(index.candidates(l).isEmpty, s"'$l'"))
    assert(index.holders.keySet == Set("", "--", "!!", "alpha"))
    assert(index.labelsOf.keySet == Set("alpha"))
  }

  test("at most topKPerRow candidates, each at least minLabelSim, by (-labelSim, uri)") {
    // Thirteen instances share "river"; the second tokens of twelve are 0,
    // 1, 2, 3, 5 and 7 edits away from "oakwood", two instances at each.
    val seconds = Seq("oakwood", "oakwooe", "oakwoee", "oakweee", "oaeeeee", "zzzzzzz")
    val uris = seconds.indices.flatMap(i => Seq(s"u$i-b", s"u$i-a")) :+ "far"
    val index = LabelIndex(seconds.zipWithIndex.flatMap { case (s, i) =>
      Seq(inst(s"u$i-b", s"river $s"), inst(s"u$i-a", s"river $s"))
    } :+ inst("far", "river"))
    val cands = index.candidates("river oakwood")
    assert(cands.size == topKPerRow)
    assert(cands.forall(_._3 >= minLabelSim))
    assert(cands == cands.sortBy { case (uri, _, sim) => (-sim, uri) })
    assert(cands.take(2).map(_._1) == Seq("u0-a", "u0-b") && cands.head._3 == 1.0)
    // Every instance left out is below the last one kept, or tied and after it.
    val last = cands.last
    uris.filterNot(cands.map(_._1).toSet).foreach { uri =>
      val sim = index.holders.collect { case (l, hs) if hs.exists(_._1 == uri) =>
        TextSim.mongeElkan("river oakwood", l) }.max
      assert(sim < last._3 || (sim == last._3 && uri > last._1), uri)
    }
  }

  test("an instance with two matching labels keeps its best similarity") {
    val city = TextSim.mongeElkan("lake placid", "lake placid city")
    Seq(Seq("lake placid", "lake placid village"), Seq("lake placid village", "lake placid")).foreach { labels =>
      val index = LabelIndex(Seq(inst("u", labels: _*), inst("v", "lake placid city")))
      assert(index.candidates("lake placid") == Seq(("u", "C", 1.0), ("v", "C", city)))
    }
  }

  test("row candidates equal the join-based reference row for row, labelSim bit for bit") {
    val pipe = TestWorld.ctx.pipe
    def rows(df: org.apache.spark.sql.DataFrame) =
      df.select("tableId", "rowId", "uri", "cls", "labelSim").collect().toSeq
        .map(r => (r.getLong(0), r.getInt(1), r.getString(2), r.getString(3),
                   java.lang.Double.doubleToRawLongBits(r.getDouble(4))))
        .sorted
    val got = rows(pipe.rowCands)
    assert(got.nonEmpty)
    assert(got == rows(JoinRowCandidates(pipe.cells, pipe.labelCols, TestWorld.ctx.kb)))
  }
}
