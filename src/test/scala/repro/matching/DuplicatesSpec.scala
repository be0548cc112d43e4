package repro.matching

import repro.SparkSpec
import repro.kb.{KBFact, KBInstance, KnowledgeBase, PropertySpec}

/** The duplicate check on a hand-built KB and table: which cells meet which
  * facts, and which of them are equal under the property's data type.
  */
class DuplicatesSpec extends SparkSpec {
  import spark.implicits._

  private lazy val kb = new KnowledgeBase(spark,
    Seq(KBInstance("u1", "C", Nil, "one", Nil, 1L), KBInstance("u2", "C", Nil, "two", Nil, 1L)),
    Seq(KBFact("u1", "height", "72"), KBFact("u1", "born", "1987-03-12"),
        KBFact("u2", "height", "100")),
    Seq(PropertySpec("C", "height", "quantity"), PropertySpec("C", "born", "date")))

  /** Rows 0 and 1 of table 1 have an instance, row 2 has none. */
  private lazy val rowInstances = Seq((1L, 0, "u1"), (1L, 1, "u2")).toDF("tableId", "rowId", "uri")

  test("cells with a property meet the fact of that property of their row's instance") {
    val cells = Seq(
      (1L, 0, 1, "74", "height"),   // within 5% of 72
      (1L, 0, 2, "1987", "born"),   // a year against a full date
      (1L, 1, 1, "120", "height"),  // 20% off 100
      (1L, 1, 2, "2001", "born"),   // u2 has no such fact
      (1L, 2, 1, "72", "height"))   // row without an instance
      .toDF("tableId", "rowId", "colId", "raw", "property")
    val got = Duplicates.kbFacts(cells, rowInstances, kb)
      .select($"rowId", $"colId", $"uri", $"property", $"value", $"equal")
      .as[(Int, Int, String, String, String, Boolean)].collect().toSet
    assert(got == Set((0, 1, "u1", "height", "72", true), (0, 2, "u1", "born", "1987-03-12", true),
                      (1, 1, "u2", "height", "100", false)))
  }

  test("cells without a property meet every fact of their row's instance once") {
    val cells = Seq((1L, 0, 1, "72"), (1L, 1, 1, "99"), (1L, 2, 1, "72"))
      .toDF("tableId", "rowId", "colId", "raw")
    val out = Duplicates.kbFacts(cells, rowInstances, kb)
    val perKey = out.groupBy($"rowId", $"colId", $"uri", $"property").count()
      .select($"count").as[Long].collect()
    assert(perKey.length == 3 && perKey.forall(_ == 1L))
    val equal = out.filter($"equal").select($"rowId", $"property").as[(Int, String)].collect().toSet
    assert(equal == Set((0, "height"), (1, "height")))
  }
}
