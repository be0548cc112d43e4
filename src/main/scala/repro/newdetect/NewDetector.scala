package repro.newdetect

import repro.clustering.RowProfiles
import repro.core.{DataType, TextSim, TypeSim}
import repro.fusion.Entity
import repro.kb.KBInstanceLocal
import repro.learn.{Aggregator, MetricLayout}

/** Classification outcome for one created entity (paper Section 3.4):
  * below the lower threshold it is new; above the upper threshold it is
  * matched to the best candidate; in between the detector abstains.
  */
sealed trait Detection extends Serializable
case object DetectedNew extends Detection
case class DetectedExisting(uri: String, score: Double) extends Detection
case object Undecided extends Detection

/** The six entity-to-instance similarity metrics as one feature vector:
  *   0 LABEL, 1 TYPE, 2 BOW, 3 ATTRIBUTE, 4 attrConf,
  *   5 IMPLICIT_ATT, 6 implConf, 7 POPULARITY
  */
object EntitySimilarity extends MetricLayout(Seq(
    "LABEL" -> false, "TYPE" -> false, "BOW" -> false,
    "ATTRIBUTE" -> true, "IMPLICIT_ATT" -> true, "POPULARITY" -> false)) {

  /** Features for one (entity, candidate) pair. `popScore` is computed per
    * candidate set (rank-based) and passed in.
    */
  def features(e: Entity, inst: KBInstanceLocal, popScore: Double,
               schema: Map[String, DataType],
               classParents: Map[String, Seq[String]]): Array[Double] = {
    val f = new Array[Double](dim)
    f(0) = TextSim.maxMongeElkan(e.labels, inst.labels)

    val eTypes = (e.cls +: classParents.getOrElse(e.cls, Nil)).toSet
    val iTypes = (inst.cls +: inst.parents).toSet
    f(1) = eTypes.intersect(iTypes).size.toDouble / eTypes.union(iTypes).size

    f(2) = TextSim.cosineBinary(e.tokens.toSet, inst.bow.toSet)

    val (attr, attrConf) = TypeSim.agreement(schema, e.facts, inst.facts)
    f(3) = attr; f(4) = attrConf
    val (impl, implConf) = RowProfiles.implicitAgreement(schema, (e.implicitAtts, inst.facts.get))
    f(5) = impl; f(6) = implConf

    f(7) = popScore
    f
  }
}

/** Candidate selection over one class's KB snapshot (paper Section 3.4), a
  * substitute for the paper's Lucene label index: a normalized-token index
  * over the instance labels retrieves instances of the entity's class or of a
  * class sharing one of its parents, and the retrieved candidates get the
  * entity-to-instance feature vector. Built once per class and broadcast to
  * the detection tasks.
  */
class CandidateSelector(instances: IndexedSeq[KBInstanceLocal],
                        schema: Map[String, DataType],
                        classParents: Map[String, Seq[String]]) extends Serializable {
  import CandidateSelector._

  /** Normalized label token -> positions in `instances`. */
  val tokenIndex: Map[String, Seq[Int]] =
    instances.zipWithIndex.flatMap { case (inst, i) =>
      inst.labels.flatMap(TextSim.tokenize).distinct.map(_ -> i)
    }.groupBy(_._1).map { case (t, xs) => t -> xs.map(_._2) }

  /** The entity's candidate instances with their feature vectors. */
  def features(e: Entity): Seq[(String, Array[Double])] = {
    val eTypes = (e.cls +: classParents.getOrElse(e.cls, Nil)).toSet
    val tokens = e.labels.flatMap(TextSim.tokenize).distinct
    val counts = scala.collection.mutable.Map.empty[Int, Int]
    tokens.foreach { t =>
      tokenIndex.getOrElse(t, Nil).foreach(i => counts(i) = counts.getOrElse(i, 0) + 1)
    }
    val cands = counts.toSeq
      .map { case (i, c) => (instances(i), c) }
      .filter { case (inst, _) =>
        (inst.cls +: inst.parents).exists(eTypes.contains)
      }
      .sortBy { case (inst, c) => (-c, inst.uri) }
      .take(topK * 3)
      .map(_._1)
      .filter(inst => TextSim.maxMongeElkan(e.labels, inst.labels) >= minCandLabelSim)
      .take(topK)
    // popularity rank within the candidate set
    val ranked = cands.sortBy(c => (-c.popularity, c.uri)).zipWithIndex.toMap
    cands.map { inst =>
      val pop =
        if (cands.size == 1) 1.0
        else 1.0 - ranked(inst).toDouble / (cands.size - 1)
      inst.uri -> EntitySimilarity.features(e, inst, pop, schema, classParents)
    }
  }
}

object CandidateSelector {
  val topK = 20
  val minCandLabelSim = 0.6
}

/** Classification of an entity from its candidates' features: a trained
  * aggregator scores each candidate, and two learned thresholds split the
  * best score into new / existing / undecided.
  */
object NewDetector {

  /** Each candidate's score: its features at `featIdx`, aggregated by `agg`. */
  def scores(cands: Seq[(String, Array[Double])], agg: Aggregator,
             featIdx: Array[Int]): Seq[(String, Double)] =
    cands.map { case (uri, f) => (uri, agg.normScore(featIdx.map(f))) }

  /** The detection of one entity from its candidates' features (scores are
    * in [-1,1]; `tNew` <= `tMatch`).
    */
  def detect(cands: Seq[(String, Array[Double])], agg: Aggregator, featIdx: Array[Int],
             tNew: Double, tMatch: Double): Detection =
    detectionFor(scores(cands, agg, featIdx), tNew, tMatch)

  /** Apply the two-threshold rule to scored candidates. */
  def detectionFor(scored: Seq[(String, Double)], tNew: Double, tMatch: Double): Detection = {
    if (scored.isEmpty) DetectedNew
    else {
      val (uri, s) = scored.maxBy { case (u, v) => (v, u) }
      if (s < tNew) DetectedNew
      else if (s >= tMatch) DetectedExisting(uri, s)
      else Undecided
    }
  }

  /** Grid-search the two thresholds maximizing classification accuracy on
    * the learning set.
    *
    * @param learn (entityId, scored candidates, truth: Some(uri) if existing)
    */
  def learnThresholds(learn: Seq[(Long, Seq[(String, Double)], Option[String])]): (Double, Double) = {
    val grid = (-20 to 20).map(_ / 20.0)
    var best = (0.0, 0.0); var bestAcc = -1.0
    for (tn <- grid; tm <- grid if tm >= tn) {
      val acc = learn.count { case (_, scored, truth) =>
        detectionFor(scored, tn, tm) match {
          case DetectedNew              => truth.isEmpty
          case DetectedExisting(uri, _) => truth.contains(uri)
          case Undecided                => false
        }
      }.toDouble / math.max(1, learn.size)
      if (acc > bestAcc) { bestAcc = acc; best = (tn, tm) }
    }
    best
  }
}
