package repro.fusion

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.{DataType, Pipeline, TypeSim, Values}
import repro.clustering.RowProfile

/** A created entity (paper Section 3.3): labels from the rows' label
  * attribute, fused facts per KB property, plus the features new detection
  * needs (bag-of-words, entity-level implicit attributes).
  */
case class Entity(entityKey: Long, cls: String, labels: Seq[String], rowKeys: Seq[Long],
                  tokens: Seq[String], implicitAtts: Map[String, Double],
                  facts: Map[String, String])

/** Candidate-value scoring approach for fusion. */
sealed trait FusionScoring extends Serializable
case object Voting extends FusionScoring
/** Knowledge-Based Trust: weight = estimated correctness of the source
  * column's overlapping values vs the KB.
  */
case object KBT extends FusionScoring
/** Weight = the attribute-to-property matcher's aggregated column score. */
case object Matching extends FusionScoring

object EntityCreation {

  /** Four-step fusion (score, group, select, fuse) for one property. */
  def fuseProperty(dt: DataType, candidates: Seq[(String, Double)]): Option[String] = {
    if (candidates.isEmpty) return None
    // group equal values greedily by type-specific equality
    val groups = scala.collection.mutable.ArrayBuffer.empty[scala.collection.mutable.ArrayBuffer[(String, Double)]]
    candidates.foreach { cand =>
      groups.find(g => TypeSim.equal(dt, g.head._1, cand._1)) match {
        case Some(g) => g += cand
        case None    => groups += scala.collection.mutable.ArrayBuffer(cand)
      }
    }
    // select the group with the highest score sum
    val best = groups.maxBy(g => (g.map(_._2).sum, g.size, Values.normalize(g.head._1)))
    Some(TypeSim.fuse(dt, best.toSeq))
  }

  /** Create entities from row clusters as a distributed group-by over the
    * cluster assignment; materialized, with its broadcasts destroyed after.
    *
    * @param clusters   rowKey -> clusterId
    * @param colScores  colKey -> weight for the configured scoring approach
    */
  def create(spark: SparkSession, profiles: Dataset[RowProfile],
             clusters: Map[Long, Long], schema: Map[String, DataType],
             scoring: FusionScoring, colScores: Map[Long, Double]): Dataset[Entity] = {
    import spark.implicits._
    val clustersB = spark.sparkContext.broadcast(clusters)
    val schemaB = spark.sparkContext.broadcast(schema)
    val scoresB = spark.sparkContext.broadcast(colScores)
    val scoringB = spark.sparkContext.broadcast(scoring)
    try Pipeline.materialize(profiles
      .groupByKey(p => clustersB.value.getOrElse(p.rowKey, p.rowKey))
      .mapGroups { (clusterId, it) =>
        fromRows(clusterId, it.toSeq, schemaB.value, scoringB.value, scoresB.value)
      })
    finally Seq(clustersB, schemaB, scoresB, scoringB).foreach(_.destroy())
  }

  /** Build one entity from its cluster's rows (driver-callable for tests). */
  def fromRows(clusterId: Long, rows: Seq[RowProfile], schema: Map[String, DataType],
               scoring: FusionScoring, colScores: Map[Long, Double]): Entity = {
    val sorted = rows.sortBy(_.rowKey)
    val labels = sorted.map(_.label).filter(_.nonEmpty).distinct
    val tokens = sorted.flatMap(_.tokens).distinct.sorted
    // entity-level implicit attributes: summed table confidences / #rows
    val impl = sorted.flatMap(_.implicitAtts.toSeq).groupBy(_._1)
      .map { case (k, xs) => k -> xs.map(_._2).sum / rows.size }
    val cls = sorted.head.cls

    val candidatesByProp = sorted.flatMap { p =>
      p.values.toSeq.map { case (prop, v) =>
        val ck = p.valueCols.getOrElse(prop, -1L)
        val w = scoring match {
          case Voting   => 1.0
          case KBT      => colScores.getOrElse(ck, 0.5)
          case Matching => colScores.getOrElse(ck, 0.5)
        }
        (prop, (v, w))
      }
    }.groupBy(_._1)

    val facts = candidatesByProp.flatMap { case (prop, cands) =>
      schema.get(prop).flatMap { dt =>
        fuseProperty(dt, cands.map(_._2)).map(prop -> _)
      }
    }
    Entity(clusterId, cls, labels, sorted.map(_.rowKey), tokens, impl, facts)
  }
}
