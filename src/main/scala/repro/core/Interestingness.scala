package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Uniform row sampling used by FEDEX-SAMPLING (§3.7 "Sampling optimization"):
  * interestingness is computed over a uniform sample of the input rows; all
  * other parts of the algorithm (partitioning, contribution) see full data.
  */
object Sampling {

  /** The default seed of the draw. */
  val Seed = 42L

  /** Uniformly sample `df` down to at most `rows` rows (deterministic in
    * `seed`). Returns `df` unchanged when it is already small enough.
    */
  def uniform(df: DataFrame, rows: Long, seed: Long = Seed): DataFrame = {
    val n = df.count()
    if (n <= rows) df
    else {
      // Slight over-sampling + limit gives an exact cap without a second pass.
      val fraction = math.min(1.0, rows.toDouble / n * 1.1)
      df.sample(withReplacement = false, fraction, seed).limit(rows.toInt)
    }
  }
}

/** Per-column interestingness scores I_A(Q) (paper §3.2): KS exceptionality
  * for filter/join/union, CV diversity for group-by.
  */
object Interestingness {
  import Partition.LabelCol

  /** KS key spaces by (input index, input column). */
  private[core] type KeySpaces = Map[(Int, String), Ks.KeySpace]

  /** Score a single output attribute, one Spark query per source: the
    * per-column reference behind `Contribution.exact`. Returns None when the
    * measure does not apply (diversity over a non-numeric column, an
    * attribute with no source column, the synthetic partition label).
    */
  def score(step: Step, attr: String, maxBins: Int = Ks.MaxBins): Option[Double] =
    if (attr == LabelCol) None
    else step.op match {
      case _: GroupByOp => Option.when(Ks.isNumeric(step.output, attr))(Diversity.cv(step.output, attr))
      case _ =>
        step.sources(attr).map { case (idx, orig) =>
          Ks.statistic(step.inputs(idx).withColumnRenamed(orig, attr), step.output, attr, maxBins)
        }.maxOption
    }

  /** Scores for every output attribute of the step, as `score` gives them.
    * With `sampleRows` set, implements FEDEX-SAMPLING: inputs are uniformly
    * sampled, the operation is re-applied to the sample, and scores are
    * computed on the sampled pair, with KS key spaces taken from the sample.
    * Each measure scores every column in one aggregation.
    */
  def scores(step: Step, attrs: Seq[String], maxBins: Int = Ks.MaxBins,
             sampleRows: Option[Long] = None, seed: Long = Sampling.Seed): Map[String, Double] =
    scores(step, attrs, maxBins, sampleRows, seed, keySpaces(step, step.inputs, attrs, maxBins, Seq.empty))

  /** `scores`, reading the full inputs' key spaces from `fullKeys` when it
    * scores the full data.
    */
  private[core] def scores(step: Step, attrs: Seq[String], maxBins: Int, sampleRows: Option[Long],
                           seed: Long, fullKeys: => KeySpaces): Map[String, Double] = {
    val sampled = sampleRows.map(k => step.inputs.map(Sampling.uniform(_, k, seed)))
    // Only frames this call made are cached and unpersisted: an input within
    // the cap comes back as the caller's own frame, and with every input
    // kept, the re-applied output would have the plan of `step.output`.
    val drawn = sampled.toSeq.flatMap(_.zip(step.inputs).collect { case (s, in) if s ne in => s })
    val (ins, out) = sampled match {
      case Some(s) if drawn.nonEmpty => (s, step.reapply(s))
      case _                         => (step.inputs, step.output)
    }
    val cached = if (drawn.isEmpty) Seq.empty else drawn :+ out
    cached.foreach(_.cache())
    try step.op match {
      case _: GroupByOp =>
        Diversity.cvs(out, attrs.distinct.filter(a => a != LabelCol && Ks.isNumeric(out, a)))
      case _ =>
        exceptionality(step, ins, out, attrs,
          if (drawn.isEmpty) fullKeys else keySpaces(step, ins, attrs, maxBins, Seq.empty))
    } finally cached.foreach(_.unpersist())
  }

  /** The input columns whose KS key spaces scoring `attrs` reads, by input:
    * the sources of every attribute (none for group-by).
    */
  private def keyColumns(step: Step, attrs: Seq[String]): Map[Int, Seq[String]] =
    attrs.filterNot(_ == LabelCol).flatMap(step.sources).distinct.groupMap(_._1)(_._2)

  /** The key space of every column `keyColumns` names, read from `ins`, one
    * `Ks.keySpaces` per input; `known` holds the inputs' profiles, if any.
    */
  private[core] def keySpaces(step: Step, ins: Seq[DataFrame], attrs: Seq[String], maxBins: Int,
                              known: Seq[Partition.Profile]): KeySpaces =
    keyColumns(step, attrs).flatMap { case (i, cols) =>
      Ks.keySpaces(ins(i), cols, maxBins, known.lift(i).getOrElse(Map.empty)).map { case (c, k) => (i, c) -> k }
    }

  /** Exceptionality of every attribute of `attrs`, from one aggregation.
    * Each (attribute, source) comparison gets an index; every input emits
    * the (index, key) pairs of its own comparisons, the output those of all;
    * one `groupBy(index, key)` counts both sides. The driver takes the KS
    * statistic of each comparison and the max per attribute.
    */
  private def exceptionality(step: Step, ins: Seq[DataFrame], out: DataFrame, attrs: Seq[String],
                             keys: KeySpaces): Map[String, Double] = {
    final case class Comparison(attr: String, input: Int, column: String, space: Ks.KeySpace)
    val cmps = attrs.distinct.filterNot(_ == LabelCol)
      .flatMap(a => step.sources(a).map { case (i, c) => Comparison(a, i, c, keys((i, c))) })
    if (cmps.isEmpty) return Map.empty
    // (index, key) of each row of `df` for the comparisons `js`, whose column in `df` is `column`
    def emit(df: DataFrame, side: Int, js: Seq[Int], column: Comparison => String): DataFrame = {
      val pairs = js.map(j => struct(lit(j).as("j"), cmps(j).space.key(col(column(cmps(j)))).as("k")))
      df.select(explode(array(pairs: _*)).as("t")).select(col("t.j"), col("t.k"), lit(side).as("s"))
    }
    val sides = ins.indices.flatMap { i =>
      val own = cmps.indices.filter(cmps(_).input == i)
      Option.when(own.nonEmpty)(emit(ins(i), 0, own, _.column))
    } :+ emit(out, 1, cmps.indices, _.attr)
    val cells = sides.reduce(_.unionAll(_)).where(col("k").isNotNull)
      .groupBy("j", "k").agg(count_if(col("s") === 0), count_if(col("s") === 1))
      .collect().groupBy(_.getInt(0))
    cmps.zipWithIndex.map { case (cmp, j) =>
      val cs = cells.getOrElse(j, Array.empty)
      cmp.attr -> Ks.fromCounts(cs.map(r => r.getString(1) -> r.getLong(2)),
        cs.map(r => r.getString(1) -> r.getLong(3)), cmp.space.numeric)
    }.groupMapReduce(_._1)(_._2)(math.max)
  }
}
