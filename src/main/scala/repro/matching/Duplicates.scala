package repro.matching

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.{DataType, TypeSim}
import repro.kb.KnowledgeBase

/** The duplicate check of duplicate-based matching (paper Section 3.1, after
  * Ritze et al.) and of KBT fusion (Section 3.3): a web-table cell duplicates
  * a value when the two are equal under the property's data type.
  */
object Duplicates {

  /** True when `raw` equals `value` under the data type of `property`. */
  def equal(types: Map[String, DataType], property: Column, raw: Column, value: Column): Column =
    udf((p: String, a: String, b: String) => TypeSim.equal(types(p), a, b))
      .apply(property, raw, value)

  /** Cells against the KB facts of their rows' instances. `rowInstances`
    * holds (tableId, rowId, uri, ...) and `cells` (tableId, rowId, colId,
    * raw, ...); cells that carry a `property` meet only the fact of that
    * property. One row per (cell, instance, fact) with every column of both
    * inputs, the fact's `property` and `value`, and `equal`. A row without an
    * instance, or an instance without the fact, gives no row.
    */
  def kbFacts(cells: DataFrame, rowInstances: DataFrame, kb: KnowledgeBase): DataFrame = {
    val key = Seq("tableId", "rowId") ++ Seq("property").filter(cells.columns.contains)
    rowInstances.join(kb.facts, "uri").join(cells, key)
      .withColumn("equal", equal(kb.propertyTypes, col("property"), col("raw"), col("value")))
  }
}
