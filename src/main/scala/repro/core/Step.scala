package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Specification of one aggregate in a group-by step.
  *
  * @param func   aggregate function name: mean|avg|sum|count|max|min
  * @param column input column the aggregate is computed over ("*" for count(*))
  * @param alias  name of the aggregate column in the output dataframe
  */
final case class AggSpec(func: String, column: String, alias: String) {
  require(AggSpec.Supported(func), s"unsupported aggregate: $func")
  require(column != "*" || func == "count", "'*' is only valid for count")

  /** Catalyst column implementing this aggregate. */
  def toColumn: Column = func match {
    case "mean" | "avg"           => avg(col(column)).as(alias)
    case "sum"                    => sum(col(column)).as(alias)
    case "count" if column == "*" => count(lit(1)).as(alias)
    case "count"                  => count(col(column)).as(alias)
    case "max"                    => max(col(column)).as(alias)
    case "min"                    => min(col(column)).as(alias)
  }
}

object AggSpec {
  val Supported: Set[String] = Set("mean", "avg", "sum", "count", "max", "min")
}

/** An EDA operation q (paper §3.1): a function from input dataframe(s) to the
  * output dataframe. The partition label column ([[Partition.LabelCol]]), when
  * present on an input, is deliberately preserved by every operation so the
  * contribution fast paths can trace output rows back to their set-of-rows.
  */
sealed trait EdaOp {
  def apply(inputs: Seq[DataFrame]): DataFrame
  def kind: String
}

/** Row-selection step over a single input: `predicate` is a SQL boolean expr. */
final case class FilterOp(predicate: String) extends EdaOp {
  override def apply(inputs: Seq[DataFrame]): DataFrame = {
    require(inputs.size == 1, s"filter takes one input, got ${inputs.size}")
    inputs.head.where(expr(predicate))
  }

  /** The columns of `input` the predicate reads, in column order, as Catalyst
    * resolves them: `age > 3` reads `age`, not also a column named `a`.
    */
  def columnsRead(input: DataFrame): Seq[String] = {
    val filter = input.where(expr(predicate)).queryExecution.analyzed
    filter.children.flatMap(_.output).filter(filter.references.contains).map(_.name)
  }
  override def kind: String = "filter"
}

/** Group-and-aggregate step over a single input dataframe. */
final case class GroupByOp(keys: Seq[String], aggs: Seq[AggSpec]) extends EdaOp {
  require(keys.nonEmpty, "group-by needs at least one key")
  require(aggs.nonEmpty, "group-by needs at least one aggregate")
  override def apply(inputs: Seq[DataFrame]): DataFrame = {
    require(inputs.size == 1, s"group-by takes one input, got ${inputs.size}")
    inputs.head.groupBy(keys.map(col): _*).agg(aggs.head.toColumn, aggs.tail.map(_.toColumn): _*)
  }
  override def kind: String = "groupby"
}

/** Inner equi-join of two inputs. All data columns are prefixed so every
  * output attribute unambiguously names its source input (`inputOf`); the
  * partition label column is passed through un-prefixed. Inner, because every
  * output row must descend from one row of each input: the provenance that
  * `Step.sources` and contribution rely on.
  */
final case class JoinOp(leftKey: String, rightKey: String,
                        leftPrefix: String, rightPrefix: String) extends EdaOp {
  require(leftPrefix.nonEmpty && rightPrefix.nonEmpty && leftPrefix != rightPrefix,
    "join prefixes must be non-empty and distinct")
  require(!leftPrefix.startsWith(rightPrefix) && !rightPrefix.startsWith(leftPrefix),
    "join prefixes must not be prefixes of each other")

  private def prefixed(df: DataFrame, p: String): DataFrame =
    df.select(df.columns.map(c => if (c == Partition.LabelCol) col(c) else col(c).as(p + c)).toSeq: _*)

  override def apply(inputs: Seq[DataFrame]): DataFrame = {
    require(inputs.size == 2, s"join takes two inputs, got ${inputs.size}")
    val l = prefixed(inputs(0), leftPrefix)
    val r = prefixed(inputs(1), rightPrefix)
    l.join(r, l(leftPrefix + leftKey) === r(rightPrefix + rightKey))
  }

  /** Which input (0=left, 1=right) and original column name a prefixed output
    * attribute came from; None for the label column / unknown names.
    */
  def inputOf(attr: String): Option[(Int, String)] =
    if (attr.startsWith(leftPrefix)) Some(0 -> attr.stripPrefix(leftPrefix))
    else if (attr.startsWith(rightPrefix)) Some(1 -> attr.stripPrefix(rightPrefix))
    else None

  override def kind: String = "join"
}

/** Union (bag semantics, by column name) of two or more inputs with identical
  * data schemas. `allowMissingColumns` lets the label column, present on the
  * partitioned input only, survive (null for rows of the other inputs, which
  * correctly lands them outside every set-of-rows).
  */
final case class UnionOp() extends EdaOp {
  override def apply(inputs: Seq[DataFrame]): DataFrame = {
    require(inputs.size >= 2, s"union takes two or more inputs, got ${inputs.size}")
    inputs.reduce(_.unionByName(_, allowMissingColumns = true))
  }
  override def kind: String = "union"
}

/** An exploratory step Q = (D_in, q, d_out) (paper §3.1). `output` is computed
  * lazily once; `reapply` re-runs q on modified inputs — the intervention of
  * Def. 3.3.
  */
final case class Step(inputs: Seq[DataFrame], op: EdaOp, name: String = "") {
  lazy val output: DataFrame = op(inputs)

  def reapply(newInputs: Seq[DataFrame]): DataFrame = op(newInputs)

  /** Output attributes eligible for explanation (partition label excluded). */
  def outputAttrs: Seq[String] = output.columns.toSeq.filterNot(_ == Partition.LabelCol)

  /** The (input index, input column) pairs whose distribution exceptionality
    * (§3.2, Eq. 1) compares output column `attr` against: the same column of
    * a filter's input or of every union input that has it, the owning side's
    * column of a join. None for group-by, whose diversity has no input side.
    */
  def sources(attr: String): Seq[(Int, String)] = op match {
    case _: FilterOp | _: UnionOp =>
      inputs.indices.filter(inputs(_).columns.contains(attr)).map(_ -> attr)
    case j: JoinOp    => j.inputOf(attr).toSeq
    case _: GroupByOp => Seq.empty
  }
}
