package repro.baselines

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{GroupByOp, JoinOp, Ks, Partition, Step}

/** One recommended visualization: group by `dim`, aggregate `agg(measure)`,
  * scored by the deviation of the target view from the reference view.
  */
final case class SeeDbView(dim: String, measure: String, agg: String, utility: Double) {
  def caption: String = f"View $agg($measure) grouped by $dim (deviation $utility%.3f)"
}

/** SEEDB-style deviation-based visualization recommendation (Vartak et al.,
  * VLDB'15 — baseline [76] in the paper). For every (dimension, measure,
  * aggregate) triple it builds the view on the query output (target) and on
  * the input dataframe (reference), normalises both into distributions over
  * the dimension's groups, and ranks views by KL divergence. SEEDB's
  * "combine multiple aggregates" optimization is applied: all measures and
  * aggregates for one dimension share a single groupBy pass. As in the paper,
  * it is not applicable to group-by steps (input and output schemas differ).
  */
object SeeDb {

  /** Candidate dimensions: non-numeric or low-cardinality columns. */
  def dimensions(df: DataFrame, maxDistinct: Int, maxDims: Int): Seq[String] = {
    val cards = Partition.profile(df)
    df.columns.toSeq.filter(c => cards.get(c).exists(n => n > 1 && n <= maxDistinct)).take(maxDims)
  }

  /** Candidate measures: numeric columns. */
  def measures(df: DataFrame, maxMeasures: Int): Seq[String] =
    df.columns.toSeq.filterNot(_ == Partition.LabelCol)
      .filter(Ks.isNumeric(df, _)).take(maxMeasures)

  private def kl(p: Seq[Double], q: Seq[Double]): Double = {
    val eps = 1e-9
    p.zip(q).map { case (pi, qi) => if (pi <= 0) 0.0 else pi * math.log((pi + eps) / (qi + eps)) }.sum
  }

  /** The (reference, target) dataframe pair for a step. Filters/unions compare
    * input vs output directly; joins compare the left input (prefixed to the
    * output's naming) vs the output projected to the left columns.
    */
  def framePair(step: Step): Option[(DataFrame, DataFrame)] = step.op match {
    case j: JoinOp =>
      val ref = step.inputs.head.select(
        step.inputs.head.columns.map(c => col(c).as(j.leftPrefix + c)).toSeq: _*)
      val tgt = step.output.select(ref.columns.map(col).toSeq: _*)
      Some(ref -> tgt)
    case _: GroupByOp => None
    case _ => Some(step.inputs.head -> step.output)
  }

  /** Top-k views for a step; None for group-by steps (not applicable). */
  def recommend(step: Step, k: Int = 3): Option[Seq[SeeDbView]] =
    framePair(step).map { case (ref, tgt) =>
      val dims = dimensions(ref, maxDistinct = 60, maxDims = 12)
      val ms   = measures(ref, maxMeasures = 12)
      val views = dims.flatMap { d =>
        val exprs = ms.flatMap(m => Seq(
          avg(col(m).cast("double")).as(s"avg__$m"),
          sum(col(m).cast("double")).as(s"sum__$m"))) :+ count(lit(1)).as("count__*")
        def viewOf(df: DataFrame): Map[String, Map[String, Double]] = {
          val rows   = df.groupBy(col(d).cast("string").as("__g")).agg(exprs.head, exprs.tail: _*).collect()
          val names  = "__g" +: ms.flatMap(m => Seq(s"avg__$m", s"sum__$m")) :+ "count__*"
          rows.map { r =>
            val g = if (r.isNullAt(0)) "∅" else r.getString(0)
            g -> names.zipWithIndex.drop(1).map { case (n, i) =>
              n -> (if (r.isNullAt(i)) 0.0 else r.get(i).toString.toDouble)
            }.toMap
          }.toMap
        }
        val rv = viewOf(ref); val tv = viewOf(tgt)
        val groups = (rv.keySet ++ tv.keySet).toSeq.sorted
        def dist(v: Map[String, Map[String, Double]], field: String): Seq[Double] = {
          val raw = groups.map(g => math.abs(v.getOrElse(g, Map.empty).getOrElse(field, 0.0)))
          val tot = raw.sum
          if (tot == 0) raw.map(_ => 0.0) else raw.map(_ / tot)
        }
        val perMeasure = ms.flatMap { m =>
          Seq("avg", "sum").map(a => SeeDbView(d, m, a, kl(dist(tv, s"${a}__$m"), dist(rv, s"${a}__$m"))))
        }
        val countView = SeeDbView(d, "*", "count", kl(dist(tv, "count__*"), dist(rv, "count__*")))
        perMeasure :+ countView
      }
      views.sortBy(v => (-v.utility, v.dim, v.measure, v.agg)).take(k)
    }
}
