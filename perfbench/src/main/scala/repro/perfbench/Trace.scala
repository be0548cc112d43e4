package repro.perfbench

import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer. `parent` is the id of the span that was open
  * when this one began (-1 for a root span); spans of one class's operation
  * share `runId`.
  */
final case class Span(id: Int, parent: Int, name: String, runId: String,
                      startNs: Long, endNs: Long, counts: Map[String, Double] = Map.empty) {
  def durationNs: Long = endNs - startNs
}

/** In-memory span recorder for the benchmark's driver thread. When disabled
  * every call runs its body and records nothing, so the untimed bookkeeping
  * of a traced run never reaches an untraced one.
  */
final class Tracer(val enabled: Boolean) {
  private val buf = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0
  var runId: String = ""

  def spans: Seq[Span] = buf.toSeq

  /** Time `body` as a span named `name`. */
  def span[A](name: String)(body: => A): A =
    if (!enabled) body else record(name)(body)._1

  /** Time `body` as a span, then derive counts from its result. The counts
    * are computed after the span has closed, inside a span named
    * [[Tracer.Bookkeeping]], so they cost the traced run time but never
    * inflate the layer's own self time.
    */
  def timed[A](name: String)(body: => A)(counts: A => Map[String, Double]): A =
    if (!enabled) body
    else {
      val (result, id) = record(name)(body)
      attach(id, record(Tracer.Bookkeeping)(counts(result))._1)
      result
    }

  private def record[A](name: String)(body: => A): (A, Int) = {
    val id = nextId; nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val t0 = System.nanoTime()
    val result = try body finally open = open.tail
    buf += Span(id, parent, name, runId, t0, System.nanoTime())
    (result, id)
  }

  /** Add counts to an already recorded span (summing on key clashes). */
  def attach(id: Int, counts: Map[String, Double]): Unit = if (enabled && counts.nonEmpty) {
    val i = buf.lastIndexWhere(_.id == id)
    val s = buf(i)
    buf(i) = s.copy(counts = counts.foldLeft(s.counts) { case (m, (k, v)) =>
      m.updated(k, m.getOrElse(k, 0.0) + v)
    })
  }

  /** Id of the most recently finished span with this name, if any. */
  def lastId(name: String): Option[Int] = buf.findLast(_.name == name).map(_.id)
}

object Tracer {
  /** Name of the spans holding the tracer's own work (counts, forced GCs). */
  val Bookkeeping = "trace"

  /** Total length of the union of [start, end) intervals, clipped to
    * [lo, hi).
    */
  def coveredNs(intervals: Seq[(Long, Long)], lo: Long, hi: Long): Long = {
    val clipped = intervals.map { case (a, b) => (math.max(a, lo), math.min(b, hi)) }
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var total = 0L; var curA = Long.MinValue; var curB = Long.MinValue
    clipped.foreach { case (a, b) =>
      if (a > curB) { if (curB > curA) total += curB - curA; curA = a; curB = b }
      else if (b > curB) curB = b
    }
    if (curB > curA) total += curB - curA
    total
  }

  /** Self time of each span: its duration minus the part of its interval
    * that its direct children cover.
    */
  def selfNs(spans: Seq[Span]): Map[Int, Long] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil).map(c => (c.startNs, c.endNs))
      s.id -> (s.durationNs - coveredNs(kids, s.startNs, s.endNs))
    }.toMap
  }

  /** Share of the wall-clock window [lo, hi) that no root span covers. */
  def uncoveredShare(spans: Seq[Span], lo: Long, hi: Long): Double = {
    val roots = spans.filter(_.parent == -1).map(s => (s.startNs, s.endNs))
    if (hi <= lo) 0.0 else 1.0 - coveredNs(roots, lo, hi).toDouble / (hi - lo)
  }
}
