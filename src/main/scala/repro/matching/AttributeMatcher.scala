package repro.matching

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.expressions.Window
import repro.core.{DataType, Pipeline, TextSim, Values}
import repro.kb.KnowledgeBase
import repro.learn.Genetic

/** Compact row/column keys used across pipeline stages. */
object Keys {
  /** Row and column ids per table that the keys can pack. */
  val RowsPerTable = 100000L
  val ColsPerTable = 1000L

  def rowKey(tableId: Long, rowId: Int): Long = tableId * RowsPerTable + rowId
  def colKey(tableId: Long, colId: Int): Long = tableId * ColsPerTable + colId
  /** (tableId, colId) of a column key: the inverse of [[colKey]]. */
  def colOf(colKey: Long): (Long, Int) = (colKey / ColsPerTable, (colKey % ColsPerTable).toInt)
  /** (tableId, rowId) of a row key: the inverse of [[rowKey]]. */
  def rowOf(rowKey: Long): (Long, Int) = (rowKey / RowsPerTable, (rowKey % RowsPerTable).toInt)

  /** Rejects ids outside the packable ranges: such a row or column would
    * share its key with one of another table.
    */
  def requirePackable(rowIds: Iterable[Int], colIds: Iterable[Int]): Unit = {
    rowIds.find(r => r < 0 || r >= RowsPerTable).foreach { r =>
      throw new IllegalArgumentException(s"row id $r outside [0, $RowsPerTable): row keys would collide")
    }
    colIds.find(c => c < 0 || c >= ColsPerTable).foreach { c =>
      throw new IllegalArgumentException(s"column id $c outside [0, $ColsPerTable): column keys would collide")
    }
  }
}

/** Outputs of a previous pipeline iteration used to refine the schema
  * mapping (paper: KB-Duplicate needs entity-to-instance correspondences,
  * WT-Label/WT-Duplicate need the preliminary mapping and row clusters).
  */
case class PriorOutputs(prelimAttr: Map[Long, String],
                        rowCluster: Map[Long, Long],
                        rowInstance: Map[Long, String])

/** Attribute-to-property matching (paper Section 3.1): candidate properties
  * are blocked by data type, five matchers score each (column, property)
  * pair, scores are aggregated by a per-class GA-learned weighted average,
  * and a column is matched to the argmax property if the aggregate clears a
  * per-property learned threshold.
  */
object AttributeMatcher {

  /** Type blocking: detected type -> admissible property data types. */
  def candidateTypes(detected: String): Seq[String] = detected match {
    case "text" => Seq(DataType.Text.name, DataType.InstanceRef.name, DataType.NominalString.name)
    case "quantity" => Seq(DataType.Quantity.name, DataType.NominalInt.name)
    case "date" => Seq(DataType.Date.name, DataType.Quantity.name, DataType.NominalInt.name)
    case _ => Seq.empty
  }

  /** Per-(class, property) value profile used by KB-Overlap. */
  case class PropProfile(dt: String, values: Set[String], lo: Double, hi: Double)

  def buildPropProfiles(kb: KnowledgeBase): Map[(String, String), PropProfile] = {
    val factsByProp = kb.factsSeq.groupBy(f => f.property)
    kb.schema.map { spec =>
      val vals = factsByProp.getOrElse(spec.property, Nil)
        .filter(f => kb.instanceByUri.get(f.uri).exists(_.cls == spec.cls))
        .map(_.value)
      val dt = spec.dataType
      val profile = dt match {
        case DataType.Quantity =>
          val nums = vals.flatMap(Values.parseQuantity).sorted
          if (nums.isEmpty) PropProfile(dt.name, Set.empty, 0, 0)
          else PropProfile(dt.name, Set.empty,
            nums(math.max(0, (nums.size * 0.02).toInt)),
            nums(math.min(nums.size - 1, (nums.size * 0.98).toInt)))
        case DataType.Date =>
          val years = vals.flatMap(v => Values.parseDate(v).map(_._1.toDouble))
          if (years.isEmpty) PropProfile(dt.name, Set.empty, 0, 0)
          else PropProfile(dt.name, Set.empty, years.min, years.max)
        case _ =>
          PropProfile(dt.name, vals.map(Values.normalize).toSet, 0, 0)
      }
      (spec.cls, spec.property) -> profile
    }.toMap
  }

  /** One cell's fit under KB-Overlap. */
  def overlapFit(profile: PropProfile, raw: String): Double = profile.dt match {
    case "quantity" =>
      Values.parseQuantity(raw) match {
        case Some(v) => if (v >= profile.lo && v <= profile.hi) 1.0 else 0.0
        case None    => 0.0
      }
    case "date" =>
      Values.parseDate(raw) match {
        case Some((y, _, _)) => if (y >= profile.lo && y <= profile.hi) 1.0 else 0.0
        case None            => 0.0
      }
    case _ =>
      if (profile.values.contains(Values.normalize(raw))) 1.0 else 0.0
  }

  /** Compute the five matcher scores for every candidate (column, property).
    *
    * Returns columns: tableId, colId, cls, property,
    * kbOverlap, kbLabel, kbDuplicate, wtLabel, wtDuplicate.
    */
  def features(spark: SparkSession, cells: DataFrame, columns: DataFrame,
               detectedTypes: DataFrame, labelCols: DataFrame, tableClass: DataFrame,
               kb: KnowledgeBase, propertyLabels: Map[String, Seq[String]],
               prior: Option[PriorOutputs]): DataFrame = {
    import spark.implicits._

    val schemaDF = kb.schema.toDF() // cls, property, dataTypeName
    val colBase = columns
      .join(tableClass.select($"tableId", $"cls"), "tableId")
      .join(detectedTypes, Seq("tableId", "colId"))
      .join(labelCols, "tableId")
      .filter($"colId" =!= $"labelColId")
      .select($"tableId", $"colId", $"header", $"cls", $"detectedType")

    val compatible = udf((detected: String, dtName: String) =>
      candidateTypes(detected).contains(dtName))
    val cands = colBase.join(schemaDF, Seq("cls"))
      .filter(compatible($"detectedType", $"dataTypeName"))
      .select($"tableId", $"colId", $"header", $"cls", $"property")

    // ---- KB-Label: header vs KB property labels --------------------------
    val propLabelsB = spark.sparkContext.broadcast(propertyLabels)
    val kbLabelUdf = udf((header: String, property: String) => {
      val ls = propLabelsB.value.get(property).filter(_.nonEmpty).getOrElse(Seq(property))
      ls.map(l => TextSim.mongeElkan(header, l)).max
    })

    // ---- KB-Overlap: cell fits the property's KB value profile -----------
    val profilesB = spark.sparkContext.broadcast(buildPropProfiles(kb))
    val overlapUdf = udf((cls: String, property: String, raw: String) =>
      profilesB.value.get((cls, property)).map(p => overlapFit(p, raw)).getOrElse(0.0))

    val cellCands = cells.join(cands, Seq("tableId", "colId"))
      .withColumn("ovl", overlapUdf($"cls", $"property", $"raw"))
    val colCands = Seq($"tableId", $"colId", $"header", $"cls", $"property")
    val scored = prior match {
      // without a prior the duplicate-based matchers have nothing to compare
      case None =>
        cellCands.groupBy(colCands: _*).agg(avg($"ovl") as "kbOverlap",
          lit(0.0) as "kbDuplicate", lit(0.0) as "wtLabel", lit(0.0) as "wtDuplicate")
      case Some(p) =>
        // read by both duplicate matchers and by the averages
        val candCells = Pipeline.materialize(cellCands)
        def byRow[T](m: Map[Long, T]) = m.toSeq.map { case (rk, v) => val (t, r) = Keys.rowOf(rk); (t, r, v) }
        val rowCluster = byRow(p.rowCluster).toDF("tableId", "rowId", "cluster")
        val prelim = mappingDF(spark, p.prelimAttr)
        val cellKey = Seq("tableId", "colId", "rowId", "property")

        // KB-Duplicate: cell equals the KB fact of the row's instance
        val kbDup = Duplicates.kbFacts(candCells, byRow(p.rowInstance).toDF("tableId", "rowId", "uri"), kb)
          .select((cellKey.map(col) :+ ($"equal".cast("double") as "dup")): _*)

        // WT-Duplicate: cell equals a value of the same (cluster, property)
        // in another table, under the preliminary mapping
        val mapped = cells.join(prelim, Seq("tableId", "colId")).join(rowCluster, Seq("tableId", "rowId"))
          .select($"cluster", $"property", $"tableId" as "otherTable", $"raw" as "otherRaw")
        val wtDup = candCells.join(rowCluster, Seq("tableId", "rowId"))
          .join(mapped, Seq("cluster", "property"))
          .filter($"otherTable" =!= $"tableId")
          .groupBy(cellKey.map(col): _*)
          .agg(max(Duplicates.equal(kb.propertyTypes, $"property", $"raw", $"otherRaw").cast("double")) as "wtd")

        // WT-Label: share of the preliminary mapping's columns with this
        // header that map to the property
        val norm = udf((s: String) => Values.normalize(s))
        val wtLabel = prelim.join(columns.select($"tableId", $"colId", $"header"), Seq("tableId", "colId"))
          .groupBy(norm($"header") as "normHeader", $"property").agg(count(lit(1)) as "n")
          .select($"normHeader", $"property",
                  $"n" / sum($"n").over(Window.partitionBy($"normHeader")) as "wtLabel")

        candCells.join(kbDup, cellKey, "left").join(wtDup, cellKey, "left")
          .groupBy(colCands: _*)
          .agg(avg($"ovl") as "kbOverlap",
               coalesce(avg($"dup"), lit(0.0)) as "kbDuplicate",
               coalesce(avg($"wtd"), lit(0.0)) as "wtDuplicate")
          .withColumn("normHeader", norm($"header"))
          .join(wtLabel, Seq("normHeader", "property"), "left")
          .na.fill(0.0, Seq("wtLabel"))
    }
    scored.withColumn("kbLabel", kbLabelUdf($"header", $"property"))
      .select($"tableId", $"colId", $"cls", $"property",
              $"kbOverlap", $"kbLabel", $"kbDuplicate", $"wtLabel", $"wtDuplicate")
  }

  /** A column mapping colKey -> property as (tableId, colId, property). */
  def mappingDF(spark: SparkSession, mapping: Map[Long, String]): DataFrame = {
    import spark.implicits._
    mapping.toSeq.map { case (ck, p) => val (t, c) = Keys.colOf(ck); (t, c, p) }
      .toDF("tableId", "colId", "property")
  }

  /** Learned parameters: per-class matcher weights + per-property thresholds. */
  case class AttrModel(weights: Map[String, Array[Double]],
                       thresholds: Map[String, Double],
                       defaultThreshold: Double = 0.30) extends Serializable

  /** Aggregate matcher scores and apply the matching rule: the argmax
    * property wins if its aggregated score clears the property threshold.
    * Returns (tableId, colId, cls, property, score).
    */
  def matchAttributes(spark: SparkSession, feats: DataFrame, model: AttrModel): DataFrame = {
    import spark.implicits._
    val weightsB = spark.sparkContext.broadcast(model.weights)
    val aggUdf = udf((cls: String, o: Double, l: Double, d: Double, wl: Double, wd: Double) => {
      val w = weightsB.value.getOrElse(cls, Array.fill(5)(0.2))
      Genetic.waScore(w, Array(o, l, d, wl, wd))
    })
    val thrB = spark.sparkContext.broadcast(model.thresholds)
    val dft = model.defaultThreshold
    val thrUdf = udf((p: String) => thrB.value.getOrElse(p, dft))
    feats
      .withColumn("score", aggUdf($"cls", $"kbOverlap", $"kbLabel", $"kbDuplicate", $"wtLabel", $"wtDuplicate"))
      .withColumn("rank", row_number().over(
        Window.partitionBy($"tableId", $"colId").orderBy($"score".desc, $"property")))
      .filter($"rank" === 1 && $"score" >= thrUdf($"property"))
      .select($"tableId", $"colId", $"cls", $"property", $"score")
  }

  /** Learn weights (GA, per class) and thresholds (per property) from gold
    * attribute annotations. `goldAttrs`: (tableId, colId) -> property.
    */
  def learn(spark: SparkSession, feats: DataFrame,
            goldAttrs: Map[(Long, Int), String],
            learnTables: Set[Long]): AttrModel = {
    // Sorted by (column, property): the GA depends on example order.
    val rows = feats.collect().filter(r => learnTables.contains(r.getLong(0)))
      .sortBy(r => (r.getLong(0), r.getInt(1), r.getString(3)))
    val byCls = rows.groupBy(_.getString(2))
    val weights = byCls.map { case (cls, rs) =>
      val features = rs.map(r => Array(r.getDouble(4), r.getDouble(5), r.getDouble(6), r.getDouble(7), r.getDouble(8)))
      val labels = rs.map(r => goldAttrs.get((r.getLong(0), r.getInt(1))).contains(r.getString(3)))
      cls -> Genetic.learn(features, labels, seed = cls.hashCode).weights
    }
    // thresholds: per property, over columns where that property is argmax
    val scored = rows.map { r =>
      val cls = r.getString(2)
      val w = weights.getOrElse(cls, Array.fill(5)(0.2))
      val s = Genetic.waScore(w, Array(r.getDouble(4), r.getDouble(5), r.getDouble(6), r.getDouble(7), r.getDouble(8)))
      ((r.getLong(0), r.getInt(1)), r.getString(3), s)
    }
    val argmax = scored.groupBy(_._1).map { case (_, xs) => xs.maxBy(x => (x._3, x._2)) }
    val thresholds = argmax.groupBy(_._2).flatMap { case (prop, xs) =>
      val scores = xs.map(_._3).toArray
      val labels = xs.map(x => goldAttrs.get(x._1).contains(prop)).toArray
      if (labels.exists(identity) && labels.exists(!_)) {
        Some(prop -> Genetic.bestThreshold(scores, labels)._1)
      } else None
    }
    AttrModel(weights, thresholds)
  }

  /** P/R/F1 of predicted correspondences vs gold (paper Table 6 metric). */
  def evaluate(predicted: Seq[((Long, Int), String)], gold: Map[(Long, Int), String],
               tables: Set[Long]): (Double, Double, Double) = {
    val pred = predicted.filter(p => tables.contains(p._1._1)).toMap
    val gld  = gold.filter(g => tables.contains(g._1._1))
    val tp = pred.count { case (k, p) => gld.get(k).contains(p) }
    val precision = if (pred.isEmpty) 0.0 else tp.toDouble / pred.size
    val recall    = if (gld.isEmpty) 0.0 else tp.toDouble / gld.size
    val f1 = if (precision + recall == 0) 0.0 else 2 * precision * recall / (precision + recall)
    (precision, recall, f1)
  }
}
