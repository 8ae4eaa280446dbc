package repro.data

import repro.SparkSpec
import org.apache.spark.sql.functions._

class DatasetsSpec extends SparkSpec {

  private lazy val spotify  = Datasets.spotify(spark, rows = 8000, seed = 11).cache()
  private lazy val bank     = Datasets.bank(spark, rows = 3000, seed = 23).cache()
  private lazy val products = Datasets.products(spark, rows = 500, seed = 31).cache()
  private lazy val sales    = Datasets.sales(spark, products, rows = 10000, seed = 53).cache()

  // ---------------------------------------------------------------- spotify

  test("spotify: requested row count and 20 columns (paper shape)") {
    assert(spotify.count() === 8000)
    assert(spotify.columns.length === 20)
  }

  test("spotify: columns required by queries 6-10 and 21-25 exist") {
    val need = Seq("popularity", "year", "loudness", "duration_minutes", "tempo",
      "danceability", "instrumentalness", "liveness", "key", "mode", "decade")
    need.foreach(c => assert(spotify.columns.contains(c), c))
  }

  test("spotify: decade is a many-to-one coarsening of year") {
    val bad = spotify.groupBy("year").agg(countDistinct("decade").as("d")).where("d > 1").count()
    assert(bad === 0)
    val years   = spotify.select("year").distinct().count()
    val decades = spotify.select("decade").distinct().count()
    assert(decades < years && decades > 1)
  }

  test("spotify planted: 2010s+ songs are far more popular") {
    val newPop = spotify.where("year >= 2010").agg(avg("popularity")).head().getDouble(0)
    val oldPop = spotify.where("year < 1990").agg(avg("popularity")).head().getDouble(0)
    assert(newPop > oldPop + 20, s"new=$newPop old=$oldPop")
  }

  test("spotify planted: popular songs (>65) skew to recent decades (Fig 2a shape)") {
    val total   = spotify.count().toDouble
    val popular = spotify.where("popularity > 65")
    val shareAll = spotify.where("year >= 2010").count() / total
    val sharePop = popular.where("year >= 2010").count() / popular.count().toDouble
    assert(sharePop > 2 * shareAll, s"pop=$sharePop all=$shareAll")
  }

  test("spotify planted: 1990s songs are less loud than neighbouring decades") {
    def meanLoud(dec: String) =
      spotify.where(col("decade") === dec).agg(avg("loudness")).head().getDouble(0)
    assert(meanLoud("1990s") < meanLoud("1980s") - 1.0)
    assert(meanLoud("1990s") < meanLoud("2000s") - 1.0)
  }

  test("spotify planted: 2020s songs are more danceable") {
    val d2020 = spotify.where("decade = '2020s'").agg(avg("danceability")).head().getDouble(0)
    val rest  = spotify.where("decade != '2020s'").agg(avg("danceability")).head().getDouble(0)
    assert(d2020 > rest + 0.08)
  }

  test("spotify planted: acoustic songs are less popular") {
    val ac  = spotify.where("acousticness > 0.5").agg(avg("popularity")).head().getDouble(0)
    val non = spotify.where("acousticness <= 0.5").agg(avg("popularity")).head().getDouble(0)
    assert(ac < non - 3)
  }

  test("spotify: value ranges are sane") {
    val r = spotify.agg(min("popularity"), max("popularity"), min("danceability"),
      max("danceability"), min("year"), max("year")).head()
    assert(r.getDouble(0) >= 0 && r.getDouble(1) <= 100)
    assert(r.getDouble(2) >= 0 && r.getDouble(3) <= 1)
    assert(r.getInt(4) >= 1950 && r.getInt(5) <= 2023)
  }

  test("spotify: skewed categorical columns exist (paper notes heavy skew)") {
    val top = spotify.groupBy("genre").count().orderBy(desc("count")).head().getLong(1)
    assert(top > 8000 / 8 * 2) // top genre well above uniform share
  }

  test("spotify: deterministic in (rows, seed)") {
    val again = Datasets.spotify(spark, rows = 8000, seed = 11)
    val a = spotify.agg(sum("popularity"), sum("year")).head()
    val b = again.agg(sum("popularity"), sum("year")).head()
    assert(a === b)
  }

  // ------------------------------------------------------------------- bank

  test("bank: row count and 21 columns (paper shape)") {
    assert(bank.count() === 3000)
    assert(bank.columns.length === 21)
  }

  test("bank: columns required by queries 11-15 and 26-30 exist") {
    val need = Seq("Attrition_Flag", "Total_Count_Change_Q4_vs_Q1", "Months_Inactive_Count_Last_Year",
      "Customer_Age", "Income_Category", "Credit_Used", "Total_Transitions_Amount",
      "Marital_Status", "Gender", "Education_Level", "Registered_Products_Count")
    need.foreach(c => assert(bank.columns.contains(c), c))
  }

  test("bank: attrition rate near the real dataset's 16%") {
    val rate = bank.where("Attrition_Flag = 'Attrited Customer'").count().toDouble / bank.count()
    assert(rate > 0.10 && rate < 0.22, rate.toString)
  }

  test("bank planted: attrited customers transact less") {
    def m(flag: String, c: String) =
      bank.where(col("Attrition_Flag") === flag).agg(avg(c)).head().getDouble(0)
    assert(m("Attrited Customer", "Total_Transitions_Amount") <
           m("Existing Customer", "Total_Transitions_Amount") * 0.75)
  }

  test("bank planted: attrited customers were inactive longer and contacted more") {
    def m(flag: String, c: String) =
      bank.where(col("Attrition_Flag") === flag).agg(avg(c)).head().getDouble(0)
    assert(m("Attrited Customer", "Months_Inactive_Count_Last_Year") >
           m("Existing Customer", "Months_Inactive_Count_Last_Year") + 1.0)
    assert(m("Attrited Customer", "Contacts_Count") > m("Existing Customer", "Contacts_Count") + 0.8)
  }

  test("bank: Income_Category uses the real dataset's labels") {
    val cats = bank.select("Income_Category").distinct().collect().map(_.getString(0)).toSet
    assert(cats.contains("Less than $40K"))
    assert(cats.subsetOf(Set("Less than $40K", "$40K - $60K", "$60K - $80K",
      "$80K - $120K", "$120K +", "Unknown")))
  }

  test("bank: Credit_Used is consistent with limit × utilization") {
    // the three columns are rounded independently (2, 2, and 3 decimals), so
    // the product of the rounded columns can drift by limit × 5e-4
    val bad = bank.where(
      abs(col("Credit_Used") - col("Credit_Limit") * col("Avg_Utilization_Ratio")) >
        col("Credit_Limit") * 0.001 + 1.0).count()
    assert(bad === 0)
  }

  // ------------------------------------------------- products & sales

  test("products: row count and 16 columns (paper shape)") {
    assert(products.count() === 500)
    assert(products.columns.length === 16)
  }

  test("sales: row count and 17 columns (paper shape)") {
    assert(sales.count() === 10000)
    assert(sales.columns.length === 17)
  }

  test("sales: denormalised product attributes are consistent with products") {
    val joined = sales.alias("s").join(products.alias("p"), "item")
      .where("s.vendor != p.vendor OR s.category_name != p.category_name OR s.pack != p.pack")
    assert(joined.count() === 0)
  }

  test("sales planted: item frequencies are zipf-skewed (join deviates)") {
    val counts = sales.groupBy("item").count().orderBy(desc("count"))
      .limit(10).collect().map(_.getLong(1))
    val uniform = 10000.0 / 500
    assert(counts.head > uniform * 4, s"top=${counts.head} uniform=$uniform")
  }

  test("products planted: small bottles concentrate in sweet categories") {
    val smallShare = products.where("liter_size <= 500")
      .where(col("category_name").isin("LIQUEUR", "SCHNAPPS", "COCKTAILS")).count().toDouble /
      math.max(1, products.where("liter_size <= 500").count())
    val baseShare = products.where(col("category_name").isin("LIQUEUR", "SCHNAPPS", "COCKTAILS"))
      .count().toDouble / products.count()
    assert(smallShare > baseShare, s"small=$smallShare base=$baseShare")
  }

  test("productsSales view: prefixed columns from both sides") {
    val ps = Datasets.productsSales(products, sales)
    assert(ps.columns.contains("products_item"))
    assert(ps.columns.contains("sales_item"))
    assert(ps.columns.contains("sales_liter_size"))
    assert(ps.columns.contains("products_pack"))
    assert(ps.count() === sales.count()) // every sale references a product
  }

  test("counties and stores lookups join cleanly with sales") {
    val counties = Datasets.counties(spark)
    val stores   = Datasets.stores(spark)
    assert(counties.count() === 100)
    assert(stores.count() === 1000)
    val unmatchedCounty = sales.join(counties, Seq("county"), "left_anti").count()
    assert(unmatchedCounty === 0)
  }
}
