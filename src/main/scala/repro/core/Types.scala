package repro.core

import java.util.regex.Pattern

/** The six data types of the paper (Section 3.1), each with a similarity
  * function and an equivalence threshold used across the whole pipeline:
  * attribute-to-property blocking, ATTRIBUTE row similarity, value grouping
  * during fusion, and fact-correctness checks in the evaluation.
  */
sealed abstract class DataType(val name: String) extends Serializable
object DataType {
  /** Fuzzy string, e.g. an instance label. */
  case object Text extends DataType("text")
  /** Exact-match string, e.g. a postal code or a position acronym. */
  case object NominalString extends DataType("nominalString")
  /** Reference to another instance, compared by normalized label. */
  case object InstanceRef extends DataType("instanceRef")
  /** Date with day or year granularity. */
  case object Date extends DataType("date")
  /** Numeric quantity where closeness is meaningful (population, height). */
  case object Quantity extends DataType("quantity")
  /** Integer where closeness is NOT meaningful (jersey number, draft round). */
  case object NominalInt extends DataType("nominalInt")

  val all: Seq[DataType] = Seq(Text, NominalString, InstanceRef, Date, Quantity, NominalInt)
  def fromName(s: String): DataType = all.find(_.name == s).getOrElse(
    throw new IllegalArgumentException(s"unknown data type: $s"))
}

/** Value normalization and parsing helpers shared by all components. */
object Values {
  private val datePatterns = Seq(
    ("""^(\d{4})-(\d{1,2})-(\d{1,2})$""".r, "ymd"),
    ("""^(\d{1,2})/(\d{1,2})/(\d{4})$""".r, "mdy"),
    ("""^(jan|feb|mar|apr|may|jun|jul|aug|sep|oct|nov|dec)[a-z]* (\d{1,2}),? (\d{4})$""".r, "tex"),
    ("""^(\d{4})$""".r, "y"),
  )
  private val months = Seq("jan", "feb", "mar", "apr", "may", "jun",
                           "jul", "aug", "sep", "oct", "nov", "dec")

  // The patterns of `normalize` and `parseQuantity`, compiled once;
  // `matcher(s).replaceAll(r)` is what `s.replaceAll(regex, r)` runs.
  private val nbsp = Pattern.compile("""[ ]""")
  private val spaces = Pattern.compile("""\s+""")
  private val edges = Pattern.compile("""^[\x00-\x20"'`\(\[]+|[\x00-\x20"'`\)\],\.]+$""")
  private val commas = Pattern.compile(",")
  private val unit = Pattern.compile("""\s*(m|kg|cm|km|ft|lb|lbs|in|people|s|sec|min)\.?$""")

  /** Lowercase, collapse whitespace, strip surrounding control characters,
    * whitespace and punctuation. Stripping both in one pass keeps the
    * function idempotent: a quote cannot hide a space from the strip.
    */
  def normalize(raw: String): String =
    if (raw == null) ""
    else {
      val s = nbsp.matcher(raw.toLowerCase).replaceAll(" ")
      edges.matcher(spaces.matcher(s).replaceAll(" ")).replaceAll("")
    }

  /** True when the string parses as a date under any accepted pattern. */
  def isDate(raw: String): Boolean = parseDate(raw).isDefined

  /** Parse to (year, month, day); month/day are 0 for year granularity. */
  def parseDate(raw: String): Option[(Int, Int, Int)] = {
    val s = normalize(raw)
    datePatterns.collectFirst {
      case (p, "ymd") if p.findFirstIn(s).isDefined =>
        val m = p.findFirstMatchIn(s).get
        (m.group(1).toInt, m.group(2).toInt, m.group(3).toInt)
      case (p, "mdy") if p.findFirstIn(s).isDefined =>
        val m = p.findFirstMatchIn(s).get
        (m.group(3).toInt, m.group(1).toInt, m.group(2).toInt)
      case (p, "tex") if p.findFirstIn(s).isDefined =>
        val m = p.findFirstMatchIn(s).get
        (m.group(3).toInt, months.indexOf(m.group(1)) + 1, m.group(2).toInt)
      case (p, "y") if p.findFirstIn(s).isDefined && s.toInt >= 1000 && s.toInt <= 2100 =>
        (s.toInt, 0, 0)
    }
  }

  /** Parse a quantity: strips thousand separators and trailing units. */
  def parseQuantity(raw: String): Option[Double] = {
    val s = unit.matcher(commas.matcher(normalize(raw)).replaceAll("")).replaceAll("")
    try { if (s.isEmpty) None else Some(s.toDouble) }
    catch { case _: NumberFormatException => None }
  }

  def isQuantity(raw: String): Boolean = parseQuantity(raw).isDefined
}

/** Type-specific similarity with a per-type equivalence threshold. All
  * similarities are in [0,1]; `equal` applies the threshold.
  */
object TypeSim {
  /** Relative tolerance for quantities (paper: "a learned tolerance range";
    * we use a fixed 5% relative band, learned ranges gave the same results
    * on the synthetic gold standard).
    */
  val quantityTolerance = 0.05
  val textThreshold     = 0.85

  def sim(dt: DataType, a: String, b: String): Double = dt match {
    case DataType.Text =>
      TextSim.mongeElkan(a, b)
    case DataType.NominalString =>
      if (Values.normalize(a) == Values.normalize(b)) 1.0 else 0.0
    case DataType.InstanceRef =>
      if (TextSim.mongeElkan(a, b) >= textThreshold) 1.0 else 0.0
    case DataType.Date =>
      (Values.parseDate(a), Values.parseDate(b)) match {
        case (Some((y1, m1, d1)), Some((y2, m2, d2))) =>
          if (y1 != y2) 0.0
          // year granularity on either side: equal years suffice
          else if (m1 == 0 || m2 == 0) 1.0
          else if (m1 == m2 && d1 == d2) 1.0
          else 0.5
        case _ => 0.0
      }
    case DataType.Quantity =>
      (Values.parseQuantity(a), Values.parseQuantity(b)) match {
        case (Some(x), Some(y)) =>
          val denom = math.max(math.abs(x), math.abs(y))
          if (denom == 0.0) 1.0
          else math.max(0.0, 1.0 - math.abs(x - y) / denom)
        case _ => 0.0
      }
    case DataType.NominalInt =>
      (Values.parseQuantity(a), Values.parseQuantity(b)) match {
        case (Some(x), Some(y)) => if (x == y) 1.0 else 0.0
        case _                  => 0.0
      }
  }

  /** Equivalence decision used for value grouping and fact correctness. */
  def equal(dt: DataType, a: String, b: String): Boolean = dt match {
    case DataType.Text     => sim(dt, a, b) >= textThreshold
    case DataType.Quantity => sim(dt, a, b) >= 1.0 - quantityTolerance
    case _                 => sim(dt, a, b) >= 1.0
  }

  /** [[equal]] under the type of property `p`, Text when `p` is unknown. */
  def equalFor(schema: Map[String, DataType], p: String, a: String, b: String): Boolean =
    equal(schema.getOrElse(p, DataType.Text), a, b)

  /** ATTRIBUTE of rows and entities: (share of equal values, count) over the
    * shared properties of two property -> value maps; (0, 0) if none.
    */
  def agreement(schema: Map[String, DataType], a: Map[String, String],
                b: Map[String, String]): (Double, Double) = {
    val eq = a.keySet.intersect(b.keySet).toSeq
      .map(p => if (equalFor(schema, p, a(p), b(p))) 1.0 else 0.0)
    if (eq.isEmpty) (0.0, 0.0) else (eq.sum / eq.size, eq.size.toDouble)
  }

  /** Fuse a group of equal values into one fact (paper Section 3.3 step 4):
    * majority value for text/instance-ref/nominals, weighted median for
    * quantity and date.
    */
  def fuse(dt: DataType, values: Seq[(String, Double)]): String = dt match {
    case DataType.Quantity =>
      val parsed = values.flatMap { case (v, w) => Values.parseQuantity(v).map((_, w, v)) }
      if (parsed.isEmpty) values.head._1 else weightedMedian(parsed)
    case DataType.Date =>
      val parsed = values.flatMap { case (v, w) =>
        Values.parseDate(v).map { case (y, m, d) => (y * 10000.0 + m * 100 + d, w, v) }
      }
      if (parsed.isEmpty) values.head._1 else weightedMedian(parsed)
    case _ =>
      // majority by total weight over normalized form; keep a raw witness
      values.groupBy(v => Values.normalize(v._1))
        .maxBy { case (_, vs) => (vs.map(_._2).sum, vs.size) }._2.head._1
  }

  private def weightedMedian(parsed: Seq[(Double, Double, String)]): String = {
    val sorted = parsed.sortBy(_._1)
    val half   = sorted.map(_._2).sum / 2.0
    var acc = 0.0
    sorted.find { case (_, w, _) => acc += w; acc >= half }.getOrElse(sorted.last)._3
  }
}
