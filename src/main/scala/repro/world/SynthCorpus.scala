package repro.world

import scala.util.Random
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{DataType, TypeSim}

/** Web-table corpus records. A table is a set of columns (with header row)
  * and cells; `rowTruth` / `colTruth` / `tableClassTruth` carry the hidden
  * generation ground truth used ONLY by evaluation code, never by the
  * pipeline.
  */
case class TableColumnRec(tableId: Long, colId: Int, header: String)
case class TableCellRec(tableId: Long, rowId: Int, colId: Int, raw: String)
case class RowTruthRec(tableId: Long, rowId: Int, entityId: Long, cls: String,
                       isNew: Boolean, uri: String)
/** property is "" for the label column and for noise columns. */
case class ColTruthRec(tableId: Long, colId: Int, property: String, isLabel: Boolean)

/** Gold standard annotations (paper Section 2.3). */
case class GoldCluster(entityId: Long, cls: String, isNew: Boolean, uri: String) {
  /** The KB instance the cluster describes; None for a new entity. */
  def instance: Option[String] = if (isNew) None else Some(uri)
}
case class GoldRow(tableId: Long, rowId: Int, entityId: Long)
case class GoldAttr(tableId: Long, colId: Int, property: String)
case class GoldFact(entityId: Long, property: String, value: String, presentInTables: Boolean)

case class Corpus(columns: Seq[TableColumnRec], cells: Seq[TableCellRec],
                  rowTruth: Seq[RowTruthRec], colTruth: Seq[ColTruthRec],
                  tableClassTruth: Map[Long, String],
                  gold: GoldStandard) {
  def columnsDF(spark: SparkSession): DataFrame = { import spark.implicits._; columns.toDF() }
  def cellsDF(spark: SparkSession): DataFrame = { import spark.implicits._; cells.toDF() }
  def tableIds: Seq[Long] = tableClassTruth.keys.toSeq.sorted
}

case class GoldStandard(clusters: Seq[GoldCluster], rows: Seq[GoldRow],
                        attrs: Seq[GoldAttr], facts: Seq[GoldFact],
                        tableIds: Set[Long]) {
  val clusterById: Map[Long, GoldCluster] = clusters.map(c => c.entityId -> c).toMap

  /** Homonym-group-aware 3-fold split (paper: clusters with highly similar
    * labels always land in the same fold; new clusters evenly distributed).
    */
  def folds(world: World, nFolds: Int = 3, seed: Long = 11): Seq[Seq[Long]] = {
    val byLabel = clusters.groupBy(c =>
      (c.cls, repro.core.Values.normalize(world.entityById(c.entityId).label)))
    val groups = byLabel.values.toSeq
      .sortBy(g => (-g.size, g.map(_.entityId).min))
    val buckets = Array.fill(nFolds)(List.empty[Long])
    val newCount = Array.fill(nFolds)(0)
    val sizeCount = Array.fill(nFolds)(0)
    groups.foreach { g =>
      val nNew = g.count(_.isNew)
      // groups with new clusters go to the fold with fewest new clusters so
      // far (paper: "evenly split new clusters and homonym groups")
      val t = if (nNew > 0) (0 until nFolds).minBy(i => (newCount(i), sizeCount(i)))
              else (0 until nFolds).minBy(i => (sizeCount(i), newCount(i)))
      buckets(t) = buckets(t) ++ g.map(_.entityId)
      newCount(t) += nNew; sizeCount(t) += g.size
    }
    buckets.toSeq
  }
}

/** Per-class corpus sizing. Gold cluster counts default to the paper's
  * Table 5 proportions.
  */
case class CorpusClassConfig(cls: String, nBulkTables: Int,
                             goldExisting: Int, goldNew: Int)
case class CorpusConfig(seed: Long, perClass: Seq[CorpusClassConfig],
                        missingProb: Double = 0.10, wrongProb: Double = 0.04,
                        outdatedProb: Double = 0.20, labelNoiseProb: Double = 0.24)

object CorpusConfig {
  def test(seed: Long = 13): CorpusConfig = CorpusConfig(seed, Seq(
    CorpusClassConfig(Schemas.GFPlayer,   90, 27, 7),
    CorpusClassConfig(Schemas.Song,      150, 12, 21),
    CorpusClassConfig(Schemas.Settlement, 80, 17, 8),
    CorpusClassConfig(Schemas.Coach,      10, 0, 0),
    CorpusClassConfig(Schemas.Album,      16, 0, 0),
    CorpusClassConfig(Schemas.Region,     14, 0, 0),
  ))
  /** Bench scale: gold counts match paper Table 5 (81/19, 34/63, 49/25). */
  def bench(seed: Long = 13): CorpusConfig = CorpusConfig(seed, Seq(
    CorpusClassConfig(Schemas.GFPlayer,   900, 81, 19),
    CorpusClassConfig(Schemas.Song,      1800, 34, 63),
    CorpusClassConfig(Schemas.Settlement, 800, 49, 25),
    CorpusClassConfig(Schemas.Coach,       60, 0, 0),
    CorpusClassConfig(Schemas.Album,      120, 0, 0),
    CorpusClassConfig(Schemas.Region,     100, 0, 0),
  ))
}

object SynthCorpus {

  /** Render a truth value into a noisy web-table surface form. */
  private[world] def render(dt: DataType, value: String, r: Random): String = dt match {
    case DataType.Date =>
      repro.core.Values.parseDate(value) match {
        case Some((y, 0, 0)) => y.toString
        case Some((y, m, d)) => r.nextInt(3) match {
          case 0 => f"$y%04d-$m%02d-$d%02d"
          case 1 => f"$m/$d/$y"
          case _ =>
            val months = Seq("January", "February", "March", "April", "May", "June",
              "July", "August", "September", "October", "November", "December")
            s"${months(m - 1)} $d, $y"
        }
        case None => value
      }
    case DataType.Quantity =>
      val v = value.toDouble
      if (v >= 10000 && r.nextBoolean()) f"${v.toLong}%,d" else value
    case _ =>
      if (r.nextDouble() < 0.2) value.split(' ').map(_.capitalize).mkString(" ") else value
  }

  /** Label perturbations the similarity stack must recover from: character
    * typos, dropped/abbreviated tokens, disambiguation suffixes. These are
    * what makes LABEL alone insufficient (paper Table 7, first row).
    */
  private[world] def perturbLabel(label: String, r: Random, prob: Double): String = {
    if (r.nextDouble() >= prob || label.length < 4) return label
    val tokens = label.split(' ')
    r.nextInt(4) match {
      case 0 => // single-character transposition
        val i = 1 + r.nextInt(label.length - 2)
        label.substring(0, i) + label.charAt(i + 1) + label.charAt(i) + label.substring(i + 2)
      case 1 if tokens.length > 1 => // abbreviate the first token
        s"${tokens.head.take(1)}. ${tokens.tail.mkString(" ")}"
      case 2 if tokens.length > 2 => // drop a middle token
        (tokens.take(1) ++ tokens.drop(2)).mkString(" ")
      case _ => s"$label (${1 + r.nextInt(30)})" // disambiguation suffix
    }
  }

  def generate(world: World, cfg: CorpusConfig): Corpus = {
    val columns  = scala.collection.mutable.ArrayBuffer.empty[TableColumnRec]
    val cells    = scala.collection.mutable.ArrayBuffer.empty[TableCellRec]
    val rowTruth = scala.collection.mutable.ArrayBuffer.empty[RowTruthRec]
    val colTruth = scala.collection.mutable.ArrayBuffer.empty[ColTruthRec]
    val tableCls = scala.collection.mutable.Map.empty[Long, String]
    var nextTable = 1L

    /** Emit one table of `rows` entities with the given property columns. */
    def emitTable(cls: String, rows: Seq[WorldEntity], props: Seq[String],
                  r: Random): Long = {
      val tid = nextTable; nextTable += 1
      tableCls(tid) = cls
      val dts = Schemas.propDefs(cls).map(p => p.property -> p.dt).toMap
      val withNoise = r.nextDouble() < 0.25
      // label column mostly leftmost; occasionally shifted right by one
      val labelAt = if (r.nextDouble() < 0.12 && props.nonEmpty) 1 else 0
      val colProps: Seq[Option[String]] = {
        val ps = props.map(Some(_): Option[String])
        val base = if (labelAt == 0) None +: ps else ps.take(1) ++ Seq(None) ++ ps.drop(1)
        if (withNoise) base :+ Some("") else base // "" marks the noise column
      }
      colProps.zipWithIndex.foreach { case (p, colId) =>
        val header = p match {
          case None => Schemas.labelHeaders(cls)(r.nextInt(Schemas.labelHeaders(cls).size))
          case Some("") => if (r.nextBoolean()) "rank" else "notes"
          case Some(prop) =>
            val pool = Schemas.headerPool(prop)
            val u = r.nextDouble()
            if (u < 0.45) pool.head
            else if (u < 0.80) pool(1 + r.nextInt(pool.size - 1))
            else Schemas.genericHeaders(r.nextInt(Schemas.genericHeaders.size))
        }
        columns += TableColumnRec(tid, colId, header)
        colTruth += ColTruthRec(tid, colId, p.getOrElse(""), p.isEmpty)
      }
      rows.zipWithIndex.foreach { case (e, rowId) =>
        rowTruth += RowTruthRec(tid, rowId, e.entityId, e.cls, !e.inKB, e.uri)
        colProps.zipWithIndex.foreach { case (p, colId) =>
          val raw = p match {
            case None => perturbLabel(e.label, r, cfg.labelNoiseProb)
            case Some("") => if (r.nextBoolean()) (rowId + 1).toString else s"note ${r.nextInt(100)}"
            case Some(prop) =>
              if (r.nextDouble() < cfg.missingProb) ""
              else {
                val truthVal =
                  if (r.nextDouble() < cfg.wrongProb)
                    world.entitiesOf(cls)(r.nextInt(world.entitiesOf(cls).size)).truth(prop)
                  else if (prop == "populationTotal" && r.nextDouble() < cfg.outdatedProb)
                    ((e.truth(prop).toDouble * (0.7 + 0.2 * r.nextDouble())).toLong).toString
                  else e.truth(prop)
                render(dts(prop), truthVal, r)
              }
          }
          if (raw.nonEmpty) cells += TableCellRec(tid, rowId, colId, raw)
        }
      }
      tid
    }

    /** Sample 1-4 property columns weighted by tableDensity. */
    def sampleProps(cls: String, r: Random, topic: Option[String]): Seq[String] = {
      val defs = Schemas.propDefs(cls)
      val n = 1 + math.min(r.nextInt(3) + (if (r.nextBoolean()) 1 else 0), defs.size - 1)
      val chosen = scala.collection.mutable.LinkedHashSet.empty[String]
      topic.filter(_ => r.nextDouble() < 0.25).foreach(chosen += _)
      var guard = 0
      while (chosen.size < n && guard < 200) {
        guard += 1
        val total = defs.map(_.tableDensity).sum
        var u = r.nextDouble() * total
        val pd = defs.find { d => u -= d.tableDensity; u <= 0 }.getOrElse(defs.last)
        if (!topic.contains(pd.property)) chosen += pd.property
      }
      chosen.toSeq
    }

    // ---- bulk tables ------------------------------------------------------
    cfg.perClass.foreach { cc =>
      val r = new Random(cfg.seed * 17 + cc.cls.hashCode)
      val pool = world.entitiesOf(cc.cls).sortBy(_.entityId)
      (0 until cc.nBulkTables).foreach { _ =>
        val topicProp = Schemas.topicProps(cc.cls)(r.nextInt(Schemas.topicProps(cc.cls).size))
        val topicVal  = pool(r.nextInt(pool.size)).truth(topicProp)
        val topicPool0 = pool.filter(_.truth(topicProp) == topicVal)
        val (topicPool, topic) =
          if (topicPool0.size >= 2) (topicPool0, Some(topicProp)) else (pool, None)
        val wanted = math.max(1, math.min(topicPool.size,
          (math.exp(r.nextGaussian() * 1.3 + 0.8)).toInt))
        // quadratic bias towards low entity ids => recurring instances
        val rows = scala.collection.mutable.LinkedHashSet.empty[WorldEntity]
        var guard = 0
        while (rows.size < wanted && guard < wanted * 20) {
          guard += 1
          rows += topicPool((topicPool.size * math.pow(r.nextDouble(), 2.0)).toInt.min(topicPool.size - 1))
        }
        emitTable(cc.cls, rows.toSeq, sampleProps(cc.cls, r, topic), r)
      }
    }

    // ---- gold tables ------------------------------------------------------
    val goldClusters = scala.collection.mutable.ArrayBuffer.empty[GoldCluster]
    val goldTableIds = scala.collection.mutable.Set.empty[Long]

    cfg.perClass.filter(c => c.goldExisting + c.goldNew > 0).foreach { cc =>
      val r = new Random(cfg.seed * 23 + cc.cls.hashCode)
      val all = world.entitiesOf(cc.cls)
      // prefer entities participating in homonym groups so folds are non-trivial
      val byLabel = all.groupBy(_.label)
      def pickGold(candidates: Seq[WorldEntity], n: Int): Seq[WorldEntity] = {
        val homonyms = candidates.filter(e => byLabel(e.label).size > 1)
        // a third from homonym groups, the rest from the full candidate pool
        (r.shuffle(homonyms).take(n / 3) ++ r.shuffle(candidates)).distinct.take(n)
      }
      val goldExisting = pickGold(all.filter(_.inKB), cc.goldExisting)
      val goldNew      = pickGold(all.filterNot(_.inKB), cc.goldNew)
      val goldEnts     = goldExisting ++ goldNew
      goldEnts.foreach(e => goldClusters += GoldCluster(e.entityId, cc.cls, !e.inKB, e.uri))

      // cluster sizes: 1..7, mean ~3.4 (paper: 3.42 rows per cluster)
      val slots: Seq[(WorldEntity, Int)] = goldEnts.flatMap { e =>
        val k = 1 + r.nextInt(6)
        (0 until k).map(e -> _)
      }
      val topicProp = Schemas.topicProps(cc.cls).head
      slots.groupBy(_._2).toSeq.sortBy(_._1).foreach { case (_, slotEnts) =>
        // sort by topic value so tables get coherent implicit attributes
        val ordered = slotEnts.map(_._1).sortBy(e => (e.truth(topicProp), e.entityId))
        ordered.grouped(2 + r.nextInt(5)).foreach { grp =>
          val tid = emitTable(cc.cls, grp, sampleProps(cc.cls, r, Some(topicProp)), r)
          goldTableIds += tid
        }
      }
    }

    // ---- gold annotations derived from truth ------------------------------
    val goldIds = goldClusters.map(_.entityId).toSet
    val goldRows = rowTruth.filter(rt => goldTableIds.contains(rt.tableId) && goldIds.contains(rt.entityId))
      .map(rt => GoldRow(rt.tableId, rt.rowId, rt.entityId)).toSeq
    val goldAttrs = colTruth
      .filter(ct => goldTableIds.contains(ct.tableId) && ct.property.nonEmpty)
      .map(ct => GoldAttr(ct.tableId, ct.colId, ct.property)).toSeq

    // value groups: (cluster, property) pairs with >=1 candidate cell
    val cellByRowCol = cells.groupBy(c => (c.tableId, c.rowId))
    val colPropMap = colTruth.map(ct => (ct.tableId, ct.colId) -> ct.property).toMap
    val goldFacts = goldRows.groupBy(_.entityId).toSeq.flatMap { case (eid, rws) =>
      val ent = world.entityById(eid)
      val dts = Schemas.propDefs(ent.cls).map(p => p.property -> p.dt).toMap
      val candByProp = rws.flatMap { gr =>
        cellByRowCol.getOrElse((gr.tableId, gr.rowId), Nil).flatMap { c =>
          val p = colPropMap((c.tableId, c.colId))
          if (p.nonEmpty) Some(p -> c.raw) else None
        }
      }.groupBy(_._1)
      candByProp.map { case (p, cands) =>
        val correct = ent.truth(p)
        val present = cands.exists { case (_, raw) => TypeSim.equal(dts(p), raw, correct) }
        GoldFact(eid, p, correct, present)
      }
    }

    val gold = GoldStandard(goldClusters.toSeq, goldRows, goldAttrs, goldFacts,
                            goldTableIds.toSet)
    Corpus(columns.toSeq, cells.toSeq, rowTruth.toSeq, colTruth.toSeq,
           tableCls.toMap, gold)
  }
}
