package repro.perfbench

import java.nio.charset.StandardCharsets
import java.security.MessageDigest
import repro.core.ClassRun
import repro.newdetect.{DetectedExisting, DetectedNew, Undecided}

/** Structural checks and a content fingerprint of one class's outputs. */
object OutputCheck {

  /** Violations of the output invariants (empty when the run is sound):
    *  - every profiled row sits in exactly one cluster, and only profiled rows
    *    are clustered;
    *  - the entities partition the profiled rows;
    *  - every entity has a detection;
    *  - every fused fact's property belongs to the class schema.
    */
  def violations(run: ClassRun, classSchema: Set[String]): Seq[String] = {
    val profiled = run.profiles.map(_.rowKey)
    val profiledSet = profiled.toSet
    val out = Seq.newBuilder[String]
    if (profiledSet.size != profiled.size)
      out += s"${profiled.size - profiledSet.size} rows profiled more than once"
    val unclustered = profiledSet -- run.clusters.keySet
    if (unclustered.nonEmpty) out += s"${unclustered.size} profiled rows without a cluster"
    val strays = run.clusters.keySet -- profiledSet
    if (strays.nonEmpty) out += s"${strays.size} clustered rows that were not profiled"
    val entityRows = run.entities.flatMap(_.rowKeys)
    if (entityRows.size != entityRows.distinct.size)
      out += s"${entityRows.size - entityRows.distinct.size} rows in more than one entity"
    if (entityRows.toSet != profiledSet)
      out += s"entity rows differ from profiled rows (${entityRows.toSet.size} vs ${profiledSet.size})"
    val undetected = run.entities.count(e => !run.detections.contains(e.entityKey))
    if (undetected > 0) out += s"$undetected entities without a detection"
    val foreign = run.entities.flatMap(_.facts.keys).filterNot(classSchema.contains).distinct
    if (foreign.nonEmpty) out += s"facts on properties outside the ${run.cls} schema: ${foreign.sorted.mkString(", ")}"
    out.result()
  }

  /** Canonical, sorted lines of the outputs the fingerprint covers:
    * correspondences, clusters, entity facts and detections.
    */
  def canonicalLines(run: ClassRun): Seq[String] = {
    val corr = run.attrCorr.toSeq.map { case (col, (p, s)) => s"corr\t$col\t$p\t$s" }
    val clusters = run.clusters.toSeq.map { case (row, c) => s"cluster\t$row\t$c" }
    val facts = run.entities.flatMap { e =>
      s"entity\t${e.entityKey}\t${e.rowKeys.sorted.mkString(",")}" +:
        e.facts.toSeq.map { case (p, v) => s"fact\t${e.entityKey}\t$p\t$v" }
    }
    val dets = run.detections.toSeq.map {
      case (k, DetectedNew) => s"det\t$k\tnew"
      case (k, Undecided) => s"det\t$k\tundecided"
      case (k, DetectedExisting(uri, s)) => s"det\t$k\texisting\t$uri\t$s"
    }
    (corr ++ clusters ++ facts ++ dets).map(l => s"${run.cls}\t$l").sorted
  }

  /** SHA-256 over the canonical lines of one class run. */
  def fingerprint(run: ClassRun): String = {
    val md = MessageDigest.getInstance("SHA-256")
    canonicalLines(run).foreach { l =>
      md.update(l.getBytes(StandardCharsets.UTF_8)); md.update('\n'.toByte)
    }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }
}
