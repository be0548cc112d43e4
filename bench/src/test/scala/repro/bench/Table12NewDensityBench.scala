package repro.bench

import repro.SparkSpec
import repro.world.Schemas

/** Paper Table 12: property densities of the new entities returned by the
  * full run — the density distribution differs from the KB's because web
  * tables focus on different properties (e.g. football tables carry
  * position/team, not birth data; song tables almost never carry writer).
  */
class Table12NewDensityBench extends SparkSpec {
  test("Table 12: property densities for new entities") {
    val t = BenchWorld.tables.table12
    t.printed.print()

    val dens = t.rows.map(d => (d.cls, d.property) -> d.density).toMap
    // paper shape: web-table density profile, not the KB's
    assert(dens((Schemas.GFPlayer, "position")) > dens((Schemas.GFPlayer, "birthPlace")),
      "football tables carry position, almost never birthPlace")
    assert(dens((Schemas.GFPlayer, "team")) > dens((Schemas.GFPlayer, "birthDate")),
      "team density must exceed birthDate for new players (inverse of the KB)")
    assert(dens((Schemas.Song, "musicalArtist")) > 40,
      "musicalArtist is the densest song property")
    assert(dens((Schemas.Song, "writer")) < 15, "writer is almost never in song tables")
    assert(dens((Schemas.Settlement, "isPartOf")) > dens((Schemas.Settlement, "elevation")),
      "isPartOf dominates elevation for new settlements")
  }
}
