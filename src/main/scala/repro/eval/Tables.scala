package repro.eval

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.clustering.{ClusteringEval, RowSimilarity}
import repro.core.{ClassModels, ClassRun, PipelineRunner}
import repro.fusion.{Entity, EntityCreation, FusionScoring, KBT, Matching, Voting}
import repro.learn.MetricLayout
import repro.matching.{AttributeMatcher, Duplicates, Keys}
import repro.newdetect.{DetectedExisting, DetectedNew, Detection, EntitySimilarity, NewDetector}
import repro.world.Schemas

/** The paper's evaluation tables (Tables 1-12) on one experiment context.
  * Each table is computed once, on first use, and holds its per-fold results
  * where it has any. The per-(class, fold) models and the full system runs
  * are memoized here and shared by the tables that read them.
  */
class Tables(val ctx: Experiment.Ctx) {
  import Tables._

  val classes: Seq[String] = Schemas.mainClasses
  private val folds: Seq[Int] = ctx.folds.indices

  private def clustersOf(cls: String): Set[Long] = ctx.goldClustersOf(cls).map(_.entityId).toSet

  /** The gold clusters of a class in one test fold. */
  private def testFoldClusters(cls: String, fold: Int): Set[Long] =
    ctx.folds(fold).toSet.intersect(clustersOf(cls))

  private val foldModelCache = scala.collection.mutable.Map.empty[(String, Int), ClassModels]
  /** Models of a class learned on the folds other than `testFold`. */
  private def foldModels(cls: String, testFold: Int): ClassModels =
    foldModelCache.getOrElseUpdate((cls, testFold),
      Experiment.learnFold(ctx, cls, clustersOf(cls) -- testFoldClusters(cls, testFold)))

  private val cvRunCache = scala.collection.mutable.Map.empty[(String, Int), ClassRun]
  /** The full two-iteration run (VOTING) of a class under its fold models. */
  private def cvRun(cls: String, testFold: Int): ClassRun =
    cvRunCache.getOrElseUpdate((cls, testFold),
      Experiment.fullRun(ctx, cls, foldModels(cls, testFold), Voting))

  private val allGoldModelCache = scala.collection.mutable.Map.empty[String, ClassModels]
  /** Models of a class learned on all of its gold clusters. */
  private def allGoldModels(cls: String): ClassModels =
    allGoldModelCache.getOrElseUpdate(cls, Experiment.learnFold(ctx, cls, clustersOf(cls)))

  private val fullRunCache = scala.collection.mutable.Map.empty[String, ClassRun]
  /** The full two-iteration run (VOTING) of a class under its all-gold models
    * (Tables 6, 11 and 12).
    */
  private def fullRunAllGold(cls: String): ClassRun =
    fullRunCache.getOrElseUpdate(cls, Experiment.fullRun(ctx, cls, allGoldModels(cls), Voting))

  private val colScoreCache = scala.collection.mutable.Map.empty[FusionScoring, Map[Long, Double]]
  private val goldEntityCache = scala.collection.mutable.Map.empty[(String, FusionScoring), Seq[Entity]]
  /** Entities of a class created from its gold clusters, fused with column
    * scores over the iteration-1 mapping.
    */
  private def goldEntities(cls: String, scoring: FusionScoring): Seq[Entity] =
    goldEntityCache.getOrElseUpdate((cls, scoring), {
      val scores = colScoreCache.getOrElseUpdate(scoring,
        PipelineRunner.fusionScores(ctx.pipe, ctx.corr1, scoring))
      Experiment.goldEntities(ctx, cls, clustersOf(cls), scoring, scores)
    })

  /** Learned new detection of entities under a class's fold models, on the
    * driver.
    */
  private def detectLocal(cls: String, fold: Int, ents: Seq[Entity]): Map[Long, Detection] = {
    val models = foldModels(cls, fold)
    val selector = ctx.pipe.selector(cls)
    val fi = EntitySimilarity.featureIndices(models.detectMetrics)
    ents.map { e =>
      e.entityKey -> NewDetector.detect(selector.features(e), models.detectAgg, fi,
                                        models.tNew, models.tMatch)
    }.toMap
  }

  lazy val table1: Table01 = Table01(ctx.kb.classProfile(classes).collect()
    .map(r => KBProfile(r.getString(0), r.getLong(1), r.getLong(2))).toSeq.sortBy(_.cls))

  lazy val table2: Table02 = Table02(ctx.kb.densityProfile(classes).collect()
    .map(r => Density(r.getString(0), r.getString(1), r.getLong(2), r.getDouble(3))).toSeq
    .sortBy(d => (d.cls, -d.density)))

  lazy val table3: Table03 = {
    val spark = ctx.spark
    import spark.implicits._
    val rowsPerTable = ctx.pipe.cells.select($"tableId", $"rowId").distinct()
      .groupBy($"tableId").agg(count(lit(1)) as "n")
    val colsPerTable = ctx.pipe.columns.groupBy($"tableId").agg(count(lit(1)) as "n")
    def dist(df: DataFrame): Dist = {
      val a = df.agg(avg($"n"), min($"n"), max($"n")).head()
      val med = df.stat.approxQuantile("n", Array(0.5), 0.0).head
      Dist(a.getDouble(0), med, a.getLong(1), a.getLong(2))
    }
    Table03(dist(rowsPerTable), dist(colsPerTable))
  }

  /** Tables with an iteration-1 correspondence, and the values of their
    * mapped columns in rows with candidate instances (the paper profiles
    * values "matched to existing instances"): matched when some candidate
    * holds an equal fact, as in the paper's duplicate-based matching.
    */
  lazy val table4: Table04 = {
    val spark = ctx.spark
    import spark.implicits._
    val pipe = ctx.pipe
    val mapping = AttributeMatcher.mappingDF(spark, ctx.corr1.map { case (k, v) => k -> v._1 })
      .join(pipe.tableClass.select($"tableId", $"cls"), "tableId")
    val cands = pipe.rowCands.select($"tableId", $"rowId", $"uri")
    val values = pipe.cells.join(mapping, Seq("tableId", "colId"))
      .join(cands.select($"tableId", $"rowId").distinct(), Seq("tableId", "rowId"))
    val matched = Duplicates.kbFacts(values, cands, ctx.kb).filter($"equal")
      .select($"tableId", $"rowId", $"colId", $"cls").distinct()
    def perClass(df: DataFrame): String => Long =
      df.groupBy($"cls").count().as[(String, Long)].collect().toMap.withDefaultValue(0L)
    val (tables, nValues, nMatched) =
      (perClass(mapping.select($"tableId", $"cls").distinct()), perClass(values), perClass(matched))
    Table04(classes.map(c => CorpusMatch(c, tables(c).toInt, nMatched(c), nValues(c) - nMatched(c))))
  }

  lazy val table5: Table05 = {
    val gold = ctx.gold
    Table05(classes.map { cls =>
      val clusters = gold.clusters.filter(_.cls == cls)
      val ids = clusters.map(_.entityId).toSet
      val grows = gold.rows.filter(r => ids.contains(r.entityId))
      val tables = grows.map(_.tableId).distinct
      val facts = gold.facts.filter(f => ids.contains(f.entityId))
      GoldOverview(cls, tables.size, gold.attrs.count(a => tables.contains(a.tableId)), grows.size,
        clusters.count(!_.isNew), clusters.count(_.isNew), facts.size, facts.count(_.presentInTables))
    })
  }

  /** Attribute matching learned on 2/3 of the gold tables and evaluated on
    * the rest, by iteration: no prior, then the prior of the classes'
    * iteration-1 runs, then that of their full runs (all-gold models).
    */
  lazy val table6: Table06 = {
    val goldTables = ctx.gold.tableIds.toSeq.sorted
    val testTables = goldTables.zipWithIndex.collect { case (t, i) if i % 3 == 2 => t }.toSet
    val learnTables = goldTables.toSet -- testTables
    def evalModel(feats: DataFrame): Metrics.PRF = {
      val model = AttributeMatcher.learn(ctx.spark, feats, ctx.goldAttrMap, learnTables)
      val corr = ctx.pipe.attrCorrespondences(feats, model)
      val predicted = corr.toSeq.map { case (ck, (p, _)) => (Keys.colOf(ck), p) }
      val (p, r, f) = AttributeMatcher.evaluate(predicted, ctx.goldAttrMap, testTables)
      Metrics.PRF(p, r, f)
    }
    val r1 = evalModel(ctx.pipe.attrFeatures1)
    val runs1 = classes.map(cls => Experiment.iteration1(ctx, cls, allGoldModels(cls), Voting))
    val r2 = evalModel(ctx.pipe.attrFeatures(Some(PipelineRunner.priorOf(runs1))))
    val r3 = evalModel(ctx.pipe.attrFeatures(Some(PipelineRunner.priorOf(classes.map(fullRunAllGold)))))
    Table06(Seq(r1, r2, r3))
  }

  /** Row clustering per cumulative metric stack, learned on the other folds'
    * gold pairs and evaluated on the test fold's gold rows.
    */
  lazy val table7: Ablation = Ablation(RowSimilarity, classes.flatMap { cls =>
    val (pairDS, comps) = ctx.pairStage1(cls)
    val goldPairs = ctx.goldPairs1(cls)
    // exact reduction: only components containing a gold row can affect the
    // gold evaluation — cluster those, skip the rest
    val goldComps = comps.collect { case (rk, c) if ctx.goldRowCluster.contains(rk) => c }.toSet
    val subComps = comps.filter { case (_, c) => goldComps.contains(c) }
    val keepRows = subComps.keySet
    val subPairs = pairDS.filter(p => keepRows.contains(p.a) && keepRows.contains(p.b)).cache()
    val clsFolds = folds.flatMap { fold =>
      val testClusters = testFoldClusters(cls, fold)
      val learnRows = ctx.goldRowCluster.filter { case (_, g) => !testClusters.contains(g) }.keySet
      val testRows = ctx.goldRowCluster.filter { case (_, g) => testClusters.contains(g) }.keySet
      stacks(RowSimilarity).map { stack =>
        val (agg, fi) = PipelineRunner.learnClusterAgg(
          goldPairs, ctx.goldRowCluster, learnRows, stack, seed = 5 + fold)
        val assigned = ctx.pipe.cluster(subPairs, subComps, agg, fi)
        val res = ClusteringEval.evaluate(
          assigned.filter { case (rk, _) => testRows.contains(rk) },
          ctx.goldRowCluster.filter { case (rk, _) => testRows.contains(rk) })
        AblationFold(cls, fold, stack, Seq(res.penalizedPrecision, res.averageRecall, res.f1),
                     RowSimilarity.importances(agg, stack))
      }
    }
    subPairs.unpersist()
    clsFolds
  })

  /** New detection per cumulative metric stack on entities created from the
    * gold clusters, learned on the other folds and evaluated on the test fold.
    */
  lazy val table8: Ablation = Ablation(EntitySimilarity, classes.flatMap { cls =>
    val allClusters = clustersOf(cls)
    val selector = ctx.pipe.selector(cls)
    val cands = goldEntities(cls, Voting).map(e => e.entityKey -> selector.features(e))
    folds.flatMap { fold =>
      val testClusters = testFoldClusters(cls, fold)
      val learnClusters = allClusters -- testClusters
      val truth = learnClusters.map(gid => gid -> ctx.gold.clusterById(gid).instance).toMap
      stacks(EntitySimilarity).map { stack =>
        val (agg, fi, tn, tm) = PipelineRunner.learnDetect(
          cands.filter(c => learnClusters.contains(c._1)), truth, stack, seed = 11 + fold)
        val testResults = cands.filter(c => testClusters.contains(c._1)).map { case (k, fs) =>
          k -> NewDetector.detect(fs, agg, fi, tn, tm)
        }
        val ev = Metrics.detectionEval(testResults, ctx.gold)
        AblationFold(cls, fold, stack, Seq(ev.accuracy, ev.f1Existing, ev.f1New),
                     EntitySimilarity.importances(agg, stack))
      }
    }
  })

  /** New instances found per fold, with gold (GS) and the system's own (ALL)
    * clustering; detection is learned in both.
    */
  lazy val table9: Table09 = Table09(classes.flatMap { cls =>
    val gsEntities = goldEntities(cls, Voting)
    folds.flatMap { fold =>
      val testClusters = testFoldClusters(cls, fold)
      val run = cvRun(cls, fold)
      Seq(NewInstancesFold(cls, fold, "GS", Metrics.newInstancesFound(gsEntities,
            detectLocal(cls, fold, gsEntities), ctx.rowGoldAll, ctx.gold, testClusters)),
          NewInstancesFold(cls, fold, "ALL", Metrics.newInstancesFound(run.entities,
            run.detections, ctx.rowGoldAll, ctx.gold, testClusters)))
    }
  })

  /** Facts found per fold under each fusion scoring, for gold clustering with
    * gold detection, gold clustering with learned detection, and the full
    * system.
    */
  lazy val table10: Table10 = Table10(classes.flatMap { cls =>
    val perfect: Map[Long, Detection] = clustersOf(cls).map { gid =>
      gid -> ctx.gold.clusterById(gid).instance.fold[Detection](DetectedNew)(DetectedExisting(_, 1.0))
    }.toMap
    folds.flatMap { fold =>
      val testClusters = testFoldClusters(cls, fold)
      def factsF1(ents: Seq[Entity], dets: Map[Long, Detection]): Double =
        Metrics.factsFound(ents, dets, ctx.rowGoldAll, ctx.gold, testClusters, ctx.schema).f1
      scorings.flatMap { case (name, s) =>
        val gsEnts = goldEntities(cls, s)
        // the full system's clusters that hold a gold row, fused under `s`
        val run = cvRun(cls, fold)
        val relevant = run.profiles.groupBy(p => run.clusters.getOrElse(p.rowKey, p.rowKey))
          .filter(_._2.exists(p => ctx.rowGoldAll.contains(p.rowKey)))
        val cs = PipelineRunner.fusionScores(ctx.pipe, run.attrCorr, s)
        val rebuilt = relevant.toSeq.sortBy(_._1).map { case (cid, profs) =>
          EntityCreation.fromRows(cid, profs, ctx.schema, s, cs)
        }
        val detections = if (s == Voting) run.detections else detectLocal(cls, fold, rebuilt)
        Seq(FactsFold(cls, fold, "GS/GS", name, factsF1(gsEnts, perfect)),
            FactsFold(cls, fold, "GS/ALL", name, factsF1(gsEnts, detectLocal(cls, fold, gsEnts))),
            FactsFold(cls, fold, "ALL/ALL", name, factsF1(rebuilt, detections)))
      }
    }
  })

  /** The full run of each class on all tables matched to it, judged against
    * the generation truth; KB sizes from Table 1.
    */
  lazy val table11: Table11 = Table11(classes.map { cls =>
    val run = fullRunAllGold(cls)
    LargeScaleRow(table1.rows.find(_.cls == cls).get,
      Metrics.largeScale(run.entities, run.detections, ctx.rowTruthEntity, ctx.world,
                         ctx.classRows(cls), ctx.schema))
  })

  lazy val table12: Table12 = Table12(classes.flatMap { cls =>
    val run = fullRunAllGold(cls)
    val dens = Metrics.newEntityDensities(run.entities, run.detections)
    Schemas.propDefs(cls).map(_.property).map { p =>
      val (facts, d) = dens.getOrElse(p, (0L, 0.0))
      Density(cls, p, facts, d * 100)
    }.sortBy(-_.density)
  })

  /** Every table as printed, in paper order; a table is computed when its
    * element is first read.
    */
  def printed: LazyList[Printed] = table1.printed #:: table2.printed #:: table3.printed #::
    table4.printed #:: table5.printed #:: table6.printed #:: table7Printed #:: table8Printed #::
    table9.printed #:: table10.printed #:: table11.printed #:: table12.printed #:: LazyList.empty

  def table7Printed: Printed = table7.printed("Paper Table 7 — row clustering ablation",
    Seq("PCP", "AR", "F1"), "Paper(PCP/AR/F1/MI)", Seq(
      Seq(0.71, 0.83, 0.76, 0.33), Seq(0.73, 0.84, 0.78, 0.18), Seq(0.74, 0.84, 0.78, 0.05),
      Seq(0.75, 0.85, 0.80, 0.21), Seq(0.78, 0.87, 0.82, 0.17), Seq(0.79, 0.87, 0.83, 0.07)))

  def table8Printed: Printed = table8.printed("Paper Table 8 — new detection ablation",
    Seq("ACC", "F1Existing", "F1New"), "Paper(ACC/F1E/F1N/MI)", Seq(
      Seq(0.69, 0.66, 0.67, 0.20), Seq(0.79, 0.75, 0.82, 0.26), Seq(0.85, 0.84, 0.83, 0.17),
      Seq(0.85, 0.86, 0.84, 0.20), Seq(0.88, 0.87, 0.89, 0.11), Seq(0.89, 0.88, 0.88, 0.06)))
}

/** The tables' rows, and each table's printed layout next to the paper's
  * numbers.
  */
object Tables {

  private def mean(xs: Seq[Double]): Double = xs.sum / xs.size

  val scorings: Seq[(String, FusionScoring)] = Seq(("VOTING", Voting), ("KBT", KBT), ("MATCHING", Matching))

  /** Cumulative metric stacks of a layout: its first metric, then one more at a time. */
  private def stacks(layout: MetricLayout): Seq[Seq[String]] =
    (1 to layout.metricNames.size).map(layout.metricNames.take)

  /** A table as printed: a title, a header and rows of cells. */
  case class Printed(title: String, header: Seq[String], rows: Seq[Seq[String]]) {
    /** Prints the columns padded to their widest cell. */
    def print(): Unit = {
      val all = header +: rows
      val widths = header.indices.map(i => all.map(_(i).length).max)
      def fmt(r: Seq[String]) = r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
      println(s"\n=== $title ===")
      println(fmt(header))
      println(widths.map("-" * _).mkString("  "))
      rows.foreach(r => println(fmt(r)))
    }
  }
  private def f(d: Double): String = f"$d%.2f"
  private def f3(d: Double): String = f"$d%.3f"

  case class KBProfile(cls: String, instances: Long, facts: Long)
  /** Paper Table 1: instances and facts per class. */
  case class Table01(rows: Seq[KBProfile]) {
    def printed: Printed = {
      val paper = Map("GridironFootballPlayer" -> Seq(20751L, 137319L),
        "Song" -> Seq(52533L, 315414L), "Settlement" -> Seq(468986L, 1444316L))
      Printed("Paper Table 1 — KB profile (paper numbers at full DBpedia scale)",
        Seq("Class", "Instances", "Facts", "PaperInstances", "PaperFacts"),
        rows.map(r => Seq(r.cls, r.instances.toString, r.facts.toString) ++ paper(r.cls).map(_.toString)))
    }
  }

  /** Facts and density (%) of a property among a class's instances. */
  case class Density(cls: String, property: String, facts: Long, density: Double)
  /** Paper Table 2: KB property densities. */
  case class Table02(rows: Seq[Density]) {
    def printed: Printed = densities("Paper Table 2 — property densities", rows, Table02.paper)
  }
  private def densities(title: String, rows: Seq[Density], paper: Map[(String, String), Double]) =
    Printed(title, Seq("Class", "Property", "Facts", "Density%", "Paper%"), rows.map { d =>
      Seq(d.cls, d.property, d.facts.toString, f(d.density),
          paper.get((d.cls, d.property)).map(_.toString).getOrElse("-")) })
  object Table02 {
    val paper: Map[(String, String), Double] = Map(
      ("GridironFootballPlayer", "birthDate") -> 97.43, ("GridironFootballPlayer", "draftPick") -> 38.19,
      ("Song", "genre") -> 89.54, ("Song", "releaseDate") -> 60.34,
      ("Settlement", "country") -> 92.51, ("Settlement", "elevation") -> 31.26)
  }

  case class Dist(avg: Double, median: Double, min: Long, max: Long)
  /** Paper Table 3: rows and columns per corpus table. */
  case class Table03(rows: Dist, columns: Dist) {
    def printed: Printed = Printed("Paper Table 3 — corpus characteristics",
      Seq("", "Average", "Median", "Min", "Max", "PaperAvg", "PaperMedian"),
      Seq(("Rows", rows, "10.37", "2"), ("Columns", columns, "3.48", "3")).map { case (n, d, pa, pm) =>
        Seq(n, f(d.avg), d.median.toLong.toString, d.min.toString, d.max.toString, pa, pm) })
  }

  case class CorpusMatch(cls: String, tables: Int, valuesMatched: Long, valuesUnmatched: Long)
  /** Paper Table 4: tables matched to a class and their values that match or
    * contradict the KB facts of the rows' candidate instances.
    */
  case class Table04(rows: Seq[CorpusMatch]) {
    def printed: Printed = Printed("Paper Table 4 — matched tables and value correspondences",
      Seq("Class", "Tables", "VMatched", "VUnmatched", "PaperTables", "PaperVM", "PaperVU"),
      rows.map { r =>
        Seq(r.cls, r.tables.toString, r.valuesMatched.toString, r.valuesUnmatched.toString) ++
          Map("GridironFootballPlayer" -> Seq(10432, 206847, 35968), "Song" -> Seq(58594, 1315381, 443194),
              "Settlement" -> Seq(11757, 82816, 13735))(r.cls).map(_.toString) })
  }

  case class GoldOverview(cls: String, tables: Int, attributes: Int, rows: Int, existing: Int,
                          newClusters: Int, groups: Int, correctPresent: Int)
  /** Paper Table 5: gold standard overview. */
  case class Table05(rows: Seq[GoldOverview]) {
    def printed: Printed = Printed("Paper Table 5 — gold standard overview",
      Seq("Class", "Tables", "Attributes", "Rows", "Existing", "New", "Groups", "CorrectPresent",
          "(paper: T/A/R/E/N/G/CP)"),
      rows.map { r =>
        Seq(r.cls, r.tables.toString, r.attributes.toString, r.rows.toString, r.existing.toString,
            r.newClusters.toString, r.groups.toString, r.correctPresent.toString,
            Table05.paper(r.cls).mkString("/")) })
  }
  object Table05 {
    /** Tables, attributes, rows, existing, new, groups, correct present. */
    val paper: Map[String, Seq[Int]] = Map(
      "GridironFootballPlayer" -> Seq(192, 572, 358, 81, 19, 475, 444),
      "Song" -> Seq(152, 248, 193, 34, 63, 231, 212),
      "Settlement" -> Seq(188, 162, 376, 49, 25, 152, 124))
  }

  /** Paper Table 6: attribute-to-property matching by iteration (1 to 3). */
  case class Table06(iterations: Seq[Metrics.PRF]) {
    def iteration(i: Int): Metrics.PRF = iterations(i - 1)
    def printed: Printed = Printed("Paper Table 6 — attribute-to-property matching by iteration",
      Seq("Iteration", "P", "R", "F1", "PaperP", "PaperR", "PaperF1"),
      iterations.zip(Seq(Seq(0.929, 0.608, 0.735), Seq(0.924, 0.916, 0.920), Seq(0.929, 0.916, 0.922)))
        .zipWithIndex.map { case ((r, paper), i) =>
          Seq((i + 1).toString, f3(r.precision), f3(r.recall), f3(r.f1)) ++ paper.map(_.toString) })
  }

  /** One class and test fold of an ablation: the metric stack, its scores
    * and the learned aggregator's importances by metric.
    */
  case class AblationFold(cls: String, fold: Int, metrics: Seq[String], scores: Seq[Double],
                          importances: Map[String, Double])
  /** Paper Tables 7 and 8: an ablation over cumulative metric stacks. */
  case class Ablation(layout: MetricLayout, folds: Seq[AblationFold]) {
    /** Scores of the stack of the first `n` metrics, averaged over classes and folds. */
    def scores(n: Int): Seq[Double] = {
      val rs = folds.filter(_.metrics.size == n)
      rs.head.scores.indices.map(i => mean(rs.map(_.scores(i))))
    }
    /** Importance of each metric in the full stack, averaged over classes and folds. */
    lazy val importance: Map[String, Double] = {
      val full = folds.filter(_.metrics.size == layout.metricNames.size)
      layout.metricNames.map(m => m -> mean(full.map(_.importances.getOrElse(m, 0.0)))).toMap
    }
    def printed(title: String, scoreNames: Seq[String], paperHeader: String,
                paper: Seq[Seq[Double]]): Printed =
      Printed(title, ("Run" +: scoreNames) ++ Seq("MI", paperHeader),
        layout.metricNames.zipWithIndex.map { case (m, i) =>
          ((if (i == 0) m else s"+ $m") +: scores(i + 1).map(f)) ++
            Seq(f(importance(m)), paper(i).mkString("/"))
        })
  }

  case class NewInstancesFold(cls: String, fold: Int, clustering: String, prf: Metrics.PRF)
  /** Paper Table 9: new instances found, GS or ALL clustering. */
  case class Table09(folds: Seq[NewInstancesFold]) {
    private def avg(rs: Seq[Metrics.PRF]) =
      Metrics.PRF(mean(rs.map(_.precision)), mean(rs.map(_.recall)), mean(rs.map(_.f1)))
    /** Averaged over the folds. */
    def of(cls: String, clustering: String): Metrics.PRF =
      avg(folds.filter(r => r.cls == cls && r.clustering == clustering).map(_.prf))
    /** ALL clustering, averaged over the classes. */
    def averageAll: Metrics.PRF = avg(folds.map(_.cls).distinct.map(of(_, "ALL")))
    def printed: Printed = {
      val paper = Map(
        ("GridironFootballPlayer", "GS") -> Seq(0.89, 0.95, 0.91), ("GridironFootballPlayer", "ALL") -> Seq(0.82, 0.95, 0.87),
        ("Song", "GS") -> Seq(0.92, 0.88, 0.90), ("Song", "ALL") -> Seq(0.72, 0.72, 0.72),
        ("Settlement", "GS") -> Seq(0.84, 0.90, 0.87), ("Settlement", "ALL") -> Seq(0.74, 0.87, 0.80))
      def row(cls: String, mode: String, r: Metrics.PRF, p: String) =
        Seq(cls, mode, f(r.precision), f(r.recall), f(r.f1), p)
      Printed("Paper Table 9 — new instances found",
        Seq("Class", "Clust.", "P", "R", "F1", "Paper(P/R/F1)"),
        (for (cls <- folds.map(_.cls).distinct; mode <- Seq("GS", "ALL"))
          yield row(cls, mode, of(cls, mode), paper((cls, mode)).mkString("/"))) :+
          row("Average", "ALL", averageAll, "0.76/0.85/0.80"))
    }
  }

  case class FactsFold(cls: String, fold: Int, run: String, scoring: String, f1: Double)
  /** Paper Table 10: facts found by run (clustering/detection) and scoring. */
  case class Table10(folds: Seq[FactsFold]) {
    val runs: Seq[String] = Seq("GS/GS", "GS/ALL", "ALL/ALL")
    /** F1 averaged over the folds. */
    def f1(cls: String, run: String, scoring: String): Double =
      mean(folds.filter(r => r.cls == cls && r.run == run && r.scoring == scoring).map(_.f1))
    /** ALL/ALL F1 of a scoring, averaged over the classes. */
    def averageAll(scoring: String): Double =
      mean(folds.map(_.cls).distinct.map(f1(_, "ALL/ALL", scoring)))
    def printed: Printed = {
      val paper = Map( // per class, for GS/GS, GS/ALL and ALL/ALL
        "GridironFootballPlayer" -> Seq(Seq(0.82, 0.82, 0.82), Seq(0.81, 0.81, 0.81), Seq(0.81, 0.81, 0.81)),
        "Song" -> Seq(Seq(0.80, 0.81, 0.81), Seq(0.74, 0.73, 0.74), Seq(0.67, 0.69, 0.68)),
        "Settlement" -> Seq(Seq(0.98, 0.98, 0.98), Seq(0.93, 0.93, 0.93), Seq(0.91, 0.91, 0.91)))
      val rows = for (cls <- folds.map(_.cls).distinct; (run, i) <- runs.zipWithIndex) yield
        (Seq(cls, run) ++ scorings.map(s => f(f1(cls, run, s._1)))) :+ paper(cls)(i).mkString("/")
      Printed("Paper Table 10 — facts found",
        Seq("Class", "Clust./Det.", "F1 VOTING", "F1 KBT", "F1 MATCHING", "Paper(V/K/M)"),
        rows :+ ((Seq("Average", "ALL/ALL") ++ scorings.map(s => f(averageAll(s._1)))) :+ "0.80/0.80/0.80"))
    }
  }

  /** One class's large-scale run next to its KB size. */
  case class LargeScaleRow(kb: KBProfile, run: Metrics.LargeScale) {
    def cls: String = kb.cls
    /** New entities relative to the class's KB instances. */
    def relativeNew: Double = run.newEntities.toDouble / kb.instances
  }
  /** Paper Table 11: large-scale profiling. */
  case class Table11(rows: Seq[LargeScaleRow]) {
    def of(cls: String): Metrics.LargeScale = rows.find(_.cls == cls).get.run
    def printed: Printed = Printed("Paper Table 11 — large-scale profiling",
      Seq("Class", "TotalRows", "Existing", "MatchedKB", "Ratio", "NewEnts(+%)",
          "NewFacts(+%)", "EntAcc", "FactAcc", "Paper"),
      rows.map { case LargeScaleRow(kb, ls) =>
        val incE = math.round(100.0 * ls.newEntities / math.max(1, kb.instances))
        val incF = math.round(100.0 * ls.newFacts / math.max(1, kb.facts))
        Seq(kb.cls, ls.totalRows.toString, ls.existingEntities.toString,
            ls.matchedInstances.toString, f(ls.matchingRatio),
            s"${ls.newEntities} (+$incE%)", s"${ls.newFacts} (+$incF%)",
            f(ls.newEntityAccuracy), f(ls.newFactAccuracy), Map(
              "GridironFootballPlayer" -> "648741 / 30074 / 24889 / 1.21 / 13983 (+67%) / 43800 (+32%) / 0.60 / 0.95",
              "Song" -> "2173536 / 40455 / 29140 / 1.39 / 186943 (+356%) / 393711 (+125%) / 0.70 / 0.85",
              "Settlement" -> "1472865 / 28628 / 27365 / 1.05 / 5764 (+1%) / 7043 (+0%) / 0.26 / 0.94")(kb.cls)) })
  }

  /** Paper Table 12: property densities (%) among the new entities. */
  case class Table12(rows: Seq[Density]) {
    def printed: Printed = densities("Paper Table 12 — property densities of new entities", rows, Map(
      ("GridironFootballPlayer", "position") -> 65.82, ("GridironFootballPlayer", "team") -> 54.62,
      ("GridironFootballPlayer", "college") -> 48.98, ("GridironFootballPlayer", "birthPlace") -> 0.90,
      ("GridironFootballPlayer", "birthDate") -> 18.14,
      ("Song", "musicalArtist") -> 76.84, ("Song", "runtime") -> 61.86,
      ("Song", "writer") -> 0.14, ("Song", "recordLabel") -> 5.50,
      ("Settlement", "isPartOf") -> 50.12, ("Settlement", "elevation") -> 1.79))
  }
}
