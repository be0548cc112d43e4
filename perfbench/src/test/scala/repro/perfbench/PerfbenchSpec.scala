package repro.perfbench

import org.scalatest.funsuite.AnyFunSuite
import repro.clustering.RowProfile
import repro.core.ClassRun
import repro.fusion.Entity
import repro.newdetect.{DetectedExisting, DetectedNew}

class PerfbenchSpec extends AnyFunSuite {

  private def span(id: Int, parent: Int, start: Long, end: Long, name: String = "x") =
    Span(id, parent, name, "r", start, end)

  test("covered time merges overlapping intervals and clips to the window") {
    assert(Tracer.coveredNs(Seq((10L, 30L), (20L, 50L), (90L, 120L)), 0, 100) == 50)
    assert(Tracer.coveredNs(Nil, 0, 100) == 0)
    assert(Tracer.coveredNs(Seq((0L, 10L), (10L, 20L)), 5, 15) == 10)
  }

  test("self time is the span minus what its direct children cover") {
    val spans = Seq(span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 40, 70),
                    span(3, 1, 12, 20), span(4, -1, 100, 110))
    val self = Tracer.selfNs(spans)
    assert(self(0) == 50) // 100 - (20 + 30); the grandchild is inside child 1
    assert(self(1) == 12)
    assert(self(3) == 8)
    assert(self(4) == 10)
    assert(self.values.sum == 110) // self times add up to the covered time
  }

  test("uncovered share counts only time outside every root span") {
    val spans = Seq(span(0, -1, 0, 40), span(1, 0, 5, 10), span(2, -1, 50, 100))
    assert(math.abs(Tracer.uncoveredShare(spans, 0, 100) - 0.1) < 1e-12)
    assert(Tracer.uncoveredShare(Nil, 0, 100) == 1.0)
  }

  test("counts are taken in a bookkeeping span outside the layer's own span") {
    val tr = new Tracer(enabled = true)
    val out = tr.span("outer")(tr.timed("inner")(41 + 1)(r => Map("n" -> r.toDouble)))
    assert(out == 42)
    val byName = tr.spans.map(s => s.name -> s).toMap
    assert(byName("inner").counts == Map("n" -> 42.0))
    assert(byName("inner").parent == byName("outer").id)
    assert(byName(Tracer.Bookkeeping).parent == byName("outer").id)
    val off = new Tracer(enabled = false)
    assert(off.timed("inner")(7)(_ => Map("n" -> 1.0)) == 7 && off.spans.isEmpty)
  }

  test("layer metrics sum counts, keep peaks and form ratios from sums") {
    val spans = Seq(
      Span(0, -1, "clustering.pairs", "a", 0, 10, Map("candidates" -> 100, "positive" -> 10, "live_mb" -> 5)),
      Span(1, -1, "clustering.pairs", "b", 10, 20, Map("candidates" -> 300, "positive" -> 50, "live_mb" -> 9)),
      Span(2, -1, "clustering.pairs", "c", 20, 30, Map("candidates" -> 600, "live_mb" -> 1)))
    val m = LayerMetrics.ofSample(spans)
    assert(m("clustering.pairs.calls") == 3)
    assert(m("clustering.pairs.candidates") == 1000)
    assert(m("clustering.pairs.live_mb") == 9)
    assert(m("clustering.pairs.positive_ratio") == 0.15) // 60 of the 400 scored candidates
    assert(m("clustering.pairs.s") == 30e-9)
  }

  private def profile(row: Long) =
    RowProfile(row, row / 10, "Song", s"l$row", s"l$row", Nil, Map.empty, Map.empty, Map.empty, Map.empty)

  private val run = ClassRun("Song",
    attrCorr = Map(1L -> ("releaseDate", 0.9)),
    clusters = Map(1L -> 1L, 2L -> 1L, 3L -> 3L),
    entities = Seq(
      Entity(1, "Song", Seq("a"), Seq(1L, 2L), Nil, Map.empty, Map("releaseDate" -> "2001")),
      Entity(3, "Song", Seq("b"), Seq(3L), Nil, Map.empty, Map.empty)),
    detections = Map(1L -> DetectedNew, 3L -> DetectedExisting("kb:b", 0.8)),
    profiles = Seq(1L, 2L, 3L).map(profile))
  private val schema = Set("releaseDate", "genre")

  test("the output check accepts consistent outputs") {
    assert(OutputCheck.violations(run, schema).isEmpty)
  }

  test("the output check catches a corrupted cluster map") {
    val dropped = run.copy(clusters = run.clusters - 3L)
    assert(OutputCheck.violations(dropped, schema).exists(_.contains("without a cluster")))
    val stray = run.copy(clusters = run.clusters + (9L -> 9L))
    assert(OutputCheck.violations(stray, schema).exists(_.contains("not profiled")))
    val moved = run.copy(clusters = run.clusters.updated(2L, 3L))
    assert(OutputCheck.fingerprint(moved) != OutputCheck.fingerprint(run))
  }

  test("the output check catches entity, detection and schema faults") {
    val doubled = run.copy(entities = run.entities :+ run.entities.head.copy(entityKey = 7))
    val v = OutputCheck.violations(doubled, schema)
    assert(v.exists(_.contains("more than one entity")))
    assert(v.exists(_.contains("without a detection")))
    val foreign = run.copy(entities = run.entities.map(e => e.copy(facts = e.facts + ("height" -> "1"))))
    assert(OutputCheck.violations(foreign, schema).exists(_.contains("height")))
  }

  test("the fingerprint ignores map order but not a changed score") {
    val reordered = run.copy(clusters = run.clusters.toSeq.reverse.toMap)
    assert(OutputCheck.fingerprint(reordered) == OutputCheck.fingerprint(run))
    val rescored = run.copy(attrCorr = Map(1L -> ("releaseDate", 0.8)))
    assert(OutputCheck.fingerprint(rescored) != OutputCheck.fingerprint(run))
  }
}
