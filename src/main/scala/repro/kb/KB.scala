package repro.kb

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{DataType, TextSim, Values}

/** One property of a KB class schema. */
case class PropertySpec(cls: String, property: String, dataTypeName: String) {
  def dataType: DataType = DataType.fromName(dataTypeName)
}

/** A KB instance: URI, class, class hierarchy, labels, popularity
  * (stand-in for Wikipedia incoming page links).
  */
case class KBInstance(uri: String, cls: String, parents: Seq[String],
                      label: String, altLabels: Seq[String], popularity: Long)

/** One fact (uri, property, value) — values stored as strings, typed via
  * the class schema.
  */
case class KBFact(uri: String, property: String, value: String)

/** In-memory snapshot of one instance used by per-pair metric code
  * (broadcast to executors; KB classes are tens of thousands of instances,
  * well within broadcast budget at our scale factors).
  */
case class KBInstanceLocal(uri: String, cls: String, parents: Seq[String],
                           labels: Seq[String], popularity: Long,
                           facts: Map[String, String], bow: Seq[String])

/** The knowledge base: DataFrames as the canonical representation (used by
  * the join-based matchers), plus a broadcastable local snapshot per class
  * (used by row-level metrics and new detection).
  */
class KnowledgeBase(val spark: SparkSession,
                    val instancesSeq: Seq[KBInstance],
                    val factsSeq: Seq[KBFact],
                    val schema: Seq[PropertySpec]) extends Serializable {
  import spark.implicits._

  lazy val instances: DataFrame = instancesSeq.toDF().cache()
  lazy val facts: DataFrame = factsSeq.toDF().cache()

  /** Schema lookup: class -> property -> data type. */
  val schemaByClass: Map[String, Map[String, DataType]] =
    schema.groupBy(_.cls).map { case (c, ps) =>
      c -> ps.map(p => p.property -> p.dataType).toMap
    }

  /** Property -> data type over all classes (a property shared by several
    * classes has the same type in each).
    */
  val propertyTypes: Map[String, DataType] = schemaByClass.values.flatten.toMap

  /** Facts by instance: uri -> property -> value. The KB holds at most one
    * fact per (uri, property).
    */
  lazy val factsByUri: Map[String, Map[String, String]] =
    factsSeq.groupBy(_.uri).map { case (u, fs) => u -> fs.map(f => f.property -> f.value).toMap }

  /** Local snapshot of all instances of a class (with their facts and a
    * bag-of-words built from labels + facts, mirroring the paper's use of
    * labels, abstract and facts for the BOW entity metric).
    */
  def localSnapshot(cls: String): Seq[KBInstanceLocal] =
    instancesSeq.filter(_.cls == cls).map { i =>
      val fs  = factsByUri.getOrElse(i.uri, Map.empty[String, String])
      val bow = ((i.label +: i.altLabels) ++ fs.values).flatMap(TextSim.tokenize).distinct
      KBInstanceLocal(i.uri, i.cls, i.parents, i.label +: i.altLabels,
                      i.popularity, fs, bow.sorted)
    }

  val instanceByUri: Map[String, KBInstance] = instancesSeq.map(i => i.uri -> i).toMap

  /** Class hierarchy as stored on the instances: class -> parent chain. */
  lazy val classParents: Map[String, Seq[String]] =
    instancesSeq.groupBy(_.cls).map { case (c, is) => c -> is.head.parents }

  /** (labels table) DataFrame: uri, cls, normLabel — one row per label,
    * for join-based row-to-instance candidate generation.
    */
  lazy val labelsDF: DataFrame =
    instancesSeq.flatMap { i =>
      (i.label +: i.altLabels).map(l => (i.uri, i.cls, Values.normalize(l)))
    }.toDF("uri", "cls", "normLabel").cache()

  /** Paper Table 1: instances and facts per class. */
  def classProfile(classes: Seq[String]): DataFrame = {
    val inst = instances.filter($"cls".isin(classes: _*))
      .groupBy($"cls").agg(count(lit(1)) as "instances")
    val fs = facts.join(instances.select($"uri", $"cls"), "uri")
      .filter($"cls".isin(classes: _*))
      .groupBy($"cls").agg(count(lit(1)) as "facts")
    inst.join(fs, "cls").select($"cls", $"instances", $"facts")
  }

  /** Paper Table 2: facts and densities per (class, property). */
  def densityProfile(classes: Seq[String]): DataFrame = {
    val inst = instances.filter($"cls".isin(classes: _*))
      .groupBy($"cls").agg(count(lit(1)) as "total")
    facts.join(instances.select($"uri", $"cls"), "uri")
      .filter($"cls".isin(classes: _*))
      .groupBy($"cls", $"property").agg(count(lit(1)) as "facts")
      .join(inst, "cls")
      .select($"cls", $"property", $"facts",
              round($"facts" / $"total" * 100, 2) as "density")
  }
}
