package repro

import java.nio.charset.StandardCharsets
import java.security.MessageDigest
import repro.core.ClassRun
import repro.newdetect.{DetectedExisting, DetectedNew, Undecided}

/** Content fingerprint of one class run: its outputs written as sorted
  * canonical lines (correspondences, clusters, entity facts, detections) and
  * their SHA-256. Two runs with equal lines produced the same outputs.
  */
object RunFingerprint {

  def lines(run: ClassRun): Seq[String] = {
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

  def sha256(run: ClassRun): String = {
    val md = MessageDigest.getInstance("SHA-256")
    lines(run).foreach { l =>
      md.update(l.getBytes(StandardCharsets.UTF_8)); md.update('\n'.toByte)
    }
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }
}
