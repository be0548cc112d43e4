package repro.bench

import repro.SparkSpec

/** Paper Table 11: large-scale profiling — run the full system on every
  * table matched to a class and judge the returned entities against the
  * generation ground truth (the paper judged a stratified 50-entity sample
  * against DBpedia; our world truth lets us judge every entity exactly).
  */
class Table11LargeScaleBench extends SparkSpec {
  test("Table 11: large-scale run per class") {
    val t = BenchWorld.tables.table11
    t.printed.print()

    val song = t.of("Song"); val gf = t.of("GridironFootballPlayer"); val st = t.of("Settlement")
    // paper shape: Song yields by far the most new entities, Settlement the fewest
    assert(song.newEntities > gf.newEntities,
      s"Song (${song.newEntities}) must yield more new entities than GF-Player (${gf.newEntities})")
    assert(gf.newEntities > st.newEntities,
      s"GF-Player (${gf.newEntities}) must yield more new entities than Settlement (${st.newEntities})")
    // paper shape: matching ratio worst for Song (homonym clustering), best for Settlement
    assert(song.matchingRatio >= st.matchingRatio - 0.05,
      s"Song ratio ${song.matchingRatio} should exceed Settlement's ${st.matchingRatio}")
    // fact accuracy is high across classes (paper: 0.85-0.95)
    t.rows.foreach { r =>
      val ls = r.run
      assert(ls.newFactAccuracy > 0.4, s"${r.cls} fact accuracy ${ls.newFactAccuracy}")
      assert(ls.existingEntities > 0 && ls.newEntities > 0, s"${r.cls} run degenerate")
      assert(ls.matchingRatio >= 1.0, s"${r.cls} ratio ${ls.matchingRatio} must be >= 1")
    }
    // Settlement finds relatively the fewest new entities vs its KB size
    val relNew = t.rows.map(r => r.cls -> r.relativeNew).toMap
    assert(relNew("Song") > relNew("Settlement"),
      s"relative increase: Song ${relNew("Song")} vs Settlement ${relNew("Settlement")}")
  }
}
