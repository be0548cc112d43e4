package repro.bench

import repro.SparkSpec
import repro.eval.Metrics

/** Paper Table 11: large-scale profiling — run the full system on every
  * table matched to a class and judge the returned entities against the
  * generation ground truth (the paper judged a stratified 50-entity sample
  * against DBpedia; our world truth lets us judge every entity exactly).
  */
class Table11LargeScaleBench extends SparkSpec {

  test("Table 11: large-scale run per class") {
    val ctx = BenchWorld.ctx

    val kbCounts = BenchWorld.classes.map { cls =>
      val insts = ctx.kb.instancesSeq.count(_.cls == cls)
      val facts = ctx.kb.factsSeq.count(f => ctx.kb.instanceByUri(f.uri).cls == cls)
      cls -> (insts, facts)
    }.toMap

    val paper = Map(
      "GridironFootballPlayer" -> Seq("648741", "30074", "24889", "1.21", "13983 (+67%)", "43800 (+32%)", "0.60", "0.95"),
      "Song" -> Seq("2173536", "40455", "29140", "1.39", "186943 (+356%)", "393711 (+125%)", "0.70", "0.85"),
      "Settlement" -> Seq("1472865", "28628", "27365", "1.05", "5764 (+1%)", "7043 (+0%)", "0.26", "0.94"))

    val measured = BenchWorld.classes.map { cls =>
      val run = BenchWorld.fullRunAllGold(cls)
      val ls = Metrics.largeScale(run.entities, run.detections, ctx.rowTruthEntity,
        ctx.world, ctx.classRows(cls), ctx.schema)
      (cls, ls)
    }

    BenchFmt.print("Paper Table 11 — large-scale profiling",
      Seq("Class", "TotalRows", "Existing", "MatchedKB", "Ratio", "NewEnts(+%)",
          "NewFacts(+%)", "EntAcc", "FactAcc", "Paper"),
      measured.map { case (cls, ls) =>
        val (kbInst, kbFacts) = kbCounts(cls)
        val incE = math.round(100.0 * ls.newEntities / math.max(1, kbInst))
        val incF = math.round(100.0 * ls.newFacts / math.max(1, kbFacts))
        Seq(cls, ls.totalRows.toString, ls.existingEntities.toString,
            ls.matchedInstances.toString, BenchFmt.f(ls.matchingRatio),
            s"${ls.newEntities} (+$incE%)", s"${ls.newFacts} (+$incF%)",
            BenchFmt.f(ls.newEntityAccuracy), BenchFmt.f(ls.newFactAccuracy),
            paper(cls).mkString(" / ")) })

    val byCls = measured.toMap
    val song = byCls("Song"); val gf = byCls("GridironFootballPlayer"); val st = byCls("Settlement")
    // paper shape: Song yields by far the most new entities, Settlement the fewest
    assert(song.newEntities > gf.newEntities,
      s"Song (${song.newEntities}) must yield more new entities than GF-Player (${gf.newEntities})")
    assert(gf.newEntities > st.newEntities,
      s"GF-Player (${gf.newEntities}) must yield more new entities than Settlement (${st.newEntities})")
    // paper shape: matching ratio worst for Song (homonym clustering), best for Settlement
    assert(song.matchingRatio >= st.matchingRatio - 0.05,
      s"Song ratio ${song.matchingRatio} should exceed Settlement's ${st.matchingRatio}")
    // fact accuracy is high across classes (paper: 0.85-0.95)
    measured.foreach { case (cls, ls) =>
      assert(ls.newFactAccuracy > 0.4, s"$cls fact accuracy ${ls.newFactAccuracy}")
      assert(ls.existingEntities > 0 && ls.newEntities > 0, s"$cls run degenerate")
      assert(ls.matchingRatio >= 1.0, s"$cls ratio ${ls.matchingRatio} must be >= 1")
    }
    // Settlement finds relatively the fewest new entities vs its KB size
    val relNew = measured.map { case (cls, ls) =>
      cls -> ls.newEntities.toDouble / kbCounts(cls)._1 }.toMap
    assert(relNew("Song") > relNew("Settlement"),
      s"relative increase: Song ${relNew("Song")} vs Settlement ${relNew("Settlement")}")
  }
}
