package dataset

import (
	"repro/internal/schema"
	"repro/internal/store"
)

// GeoSchema returns the world-geography domain schema.
func GeoSchema() *schema.Schema {
	return schema.MustNew("geo", []*schema.Table{
		{
			Name:       "countries",
			PrimaryKey: "country_id",
			Synonyms:   []string{"country", "nation", "state"},
			Columns: []schema.Column{
				{Name: "country_id", Type: schema.Int},
				{Name: "name", Type: schema.Text, NameLike: true},
				{Name: "continent", Type: schema.Text, NameLike: true, Synonyms: []string{"region"}},
				{Name: "area", Type: schema.Float, Synonyms: []string{"size", "surface"}},
				{Name: "population", Type: schema.Int, Synonyms: []string{"people", "inhabitants"}},
				{Name: "gdp", Type: schema.Float, Synonyms: []string{"economy", "gross domestic product"}},
			},
		},
		{
			Name:       "cities",
			PrimaryKey: "city_id",
			Synonyms:   []string{"city", "town", "metropolis"},
			Columns: []schema.Column{
				{Name: "city_id", Type: schema.Int},
				{Name: "name", Type: schema.Text, NameLike: true},
				{Name: "country_id", Type: schema.Int},
				{Name: "population", Type: schema.Int, Synonyms: []string{"people", "inhabitants"}},
				{Name: "capital", Type: schema.Bool},
			},
		},
		{
			Name:       "rivers",
			PrimaryKey: "river_id",
			Synonyms:   []string{"river", "waterway", "stream"},
			Columns: []schema.Column{
				{Name: "river_id", Type: schema.Int},
				{Name: "name", Type: schema.Text, NameLike: true},
				{Name: "length", Type: schema.Float},
				{Name: "country_id", Type: schema.Int},
			},
		},
		{
			Name:       "mountains",
			PrimaryKey: "mountain_id",
			Synonyms:   []string{"mountain", "peak", "summit"},
			Columns: []schema.Column{
				{Name: "mountain_id", Type: schema.Int},
				{Name: "name", Type: schema.Text, NameLike: true},
				{Name: "height", Type: schema.Float, Synonyms: []string{"elevation", "altitude"}},
				{Name: "country_id", Type: schema.Int},
			},
		},
	}, []schema.ForeignKey{
		{Table: "cities", Column: "country_id", RefTable: "countries", RefColumn: "country_id"},
		{Table: "rivers", Column: "country_id", RefTable: "countries", RefColumn: "country_id"},
		{Table: "mountains", Column: "country_id", RefTable: "countries", RefColumn: "country_id"},
	})
}

// geoCountry holds the hand-authored country facts (approximate real
// values; area km^2, population, GDP in billions USD).
type geoCountry struct {
	name      string
	continent string
	area      float64
	pop       int64
	gdp       float64
}

var geoCountries = []geoCountry{
	{"United States", "North America", 9833520, 331000000, 25460},
	{"Canada", "North America", 9984670, 38000000, 2140},
	{"Mexico", "North America", 1964375, 126000000, 1410},
	{"Brazil", "South America", 8515767, 213000000, 1920},
	{"Argentina", "South America", 2780400, 45000000, 630},
	{"Peru", "South America", 1285216, 33000000, 240},
	{"France", "Europe", 643801, 67000000, 2780},
	{"Germany", "Europe", 357114, 83000000, 4070},
	{"Spain", "Europe", 505992, 47000000, 1400},
	{"Italy", "Europe", 301339, 60000000, 2010},
	{"Netherlands", "Europe", 41850, 17500000, 990},
	{"Switzerland", "Europe", 41284, 8700000, 800},
	{"Egypt", "Africa", 1002450, 104000000, 470},
	{"Nigeria", "Africa", 923768, 211000000, 440},
	{"Kenya", "Africa", 580367, 54000000, 110},
	{"South Africa", "Africa", 1221037, 60000000, 400},
	{"China", "Asia", 9596961, 1412000000, 17960},
	{"India", "Asia", 3287263, 1380000000, 3390},
	{"Japan", "Asia", 377975, 125000000, 4230},
	{"Indonesia", "Asia", 1904569, 273000000, 1320},
	{"Vietnam", "Asia", 331212, 97000000, 410},
	{"Australia", "Oceania", 7692024, 25700000, 1680},
	{"New Zealand", "Oceania", 270467, 5100000, 250},
	{"Norway", "Europe", 385207, 5400000, 580},
	{"Chile", "South America", 756102, 19000000, 300},
}

type geoCity struct {
	name    string
	country string
	pop     int64
	capital bool
}

var geoCities = []geoCity{
	{"Washington", "United States", 705749, true},
	{"New York", "United States", 8804190, false},
	{"Los Angeles", "United States", 3898747, false},
	{"Chicago", "United States", 2746388, false},
	{"Ottawa", "Canada", 1017449, true},
	{"Toronto", "Canada", 2794356, false},
	{"Vancouver", "Canada", 662248, false},
	{"Mexico City", "Mexico", 9209944, true},
	{"Guadalajara", "Mexico", 1385629, false},
	{"Brasilia", "Brazil", 3094325, true},
	{"Sao Paulo", "Brazil", 12325232, false},
	{"Rio de Janeiro", "Brazil", 6747815, false},
	{"Buenos Aires", "Argentina", 3075646, true},
	{"Cordoba", "Argentina", 1430554, false},
	{"Lima", "Peru", 9751717, true},
	{"Paris", "France", 2165423, true},
	{"Marseille", "France", 870018, false},
	{"Lyon", "France", 522969, false},
	{"Berlin", "Germany", 3677472, true},
	{"Hamburg", "Germany", 1906411, false},
	{"Munich", "Germany", 1487708, false},
	{"Madrid", "Spain", 3223334, true},
	{"Barcelona", "Spain", 1620343, false},
	{"Rome", "Italy", 2872800, true},
	{"Milan", "Italy", 1396059, false},
	{"Amsterdam", "Netherlands", 905234, true},
	{"Rotterdam", "Netherlands", 651446, false},
	{"Bern", "Switzerland", 133883, true},
	{"Zurich", "Switzerland", 421878, false},
	{"Cairo", "Egypt", 9539673, true},
	{"Alexandria", "Egypt", 5200000, false},
	{"Abuja", "Nigeria", 1235880, true},
	{"Lagos", "Nigeria", 14862000, false},
	{"Nairobi", "Kenya", 4397073, true},
	{"Mombasa", "Kenya", 1208333, false},
	{"Pretoria", "South Africa", 741651, true},
	{"Johannesburg", "South Africa", 957441, false},
	{"Cape Town", "South Africa", 433688, false},
	{"Beijing", "China", 21893095, true},
	{"Shanghai", "China", 24870895, false},
	{"Shenzhen", "China", 17560000, false},
	{"New Delhi", "India", 257803, true},
	{"Mumbai", "India", 12442373, false},
	{"Bangalore", "India", 8443675, false},
	{"Tokyo", "Japan", 13960236, true},
	{"Osaka", "Japan", 2691185, false},
	{"Kyoto", "Japan", 1464890, false},
	{"Jakarta", "Indonesia", 10562088, true},
	{"Surabaya", "Indonesia", 2874314, false},
	{"Hanoi", "Vietnam", 8053663, true},
	{"Ho Chi Minh City", "Vietnam", 8993082, false},
	{"Canberra", "Australia", 453558, true},
	{"Sydney", "Australia", 5312163, false},
	{"Melbourne", "Australia", 5078193, false},
	{"Wellington", "New Zealand", 212700, true},
	{"Auckland", "New Zealand", 1571718, false},
	{"Oslo", "Norway", 697010, true},
	{"Bergen", "Norway", 285911, false},
	{"Santiago", "Chile", 6257516, true},
	{"Valparaiso", "Chile", 296655, false},
}

type geoRiver struct {
	name    string
	length  float64 // km
	country string
}

var geoRivers = []geoRiver{
	{"Mississippi", 3766, "United States"},
	{"Missouri", 3767, "United States"},
	{"Colorado", 2330, "United States"},
	{"Mackenzie", 4241, "Canada"},
	{"Saint Lawrence", 3058, "Canada"},
	{"Rio Grande", 3051, "Mexico"},
	{"Amazon", 6400, "Brazil"},
	{"Parana", 4880, "Argentina"},
	{"Ucayali", 1771, "Peru"},
	{"Seine", 775, "France"},
	{"Loire", 1012, "France"},
	{"Rhine", 1233, "Germany"},
	{"Elbe", 1094, "Germany"},
	{"Ebro", 930, "Spain"},
	{"Po", 652, "Italy"},
	{"Tiber", 406, "Italy"},
	{"Nile", 6650, "Egypt"},
	{"Niger", 4180, "Nigeria"},
	{"Tana", 1000, "Kenya"},
	{"Orange", 2200, "South Africa"},
	{"Yangtze", 6300, "China"},
	{"Yellow", 5464, "China"},
	{"Ganges", 2525, "India"},
	{"Brahmaputra", 3848, "India"},
	{"Shinano", 367, "Japan"},
	{"Kapuas", 1143, "Indonesia"},
	{"Mekong", 4350, "Vietnam"},
	{"Murray", 2508, "Australia"},
	{"Waikato", 425, "New Zealand"},
	{"Glomma", 621, "Norway"},
}

type geoMountain struct {
	name    string
	height  float64 // m
	country string
}

var geoMountains = []geoMountain{
	{"Denali", 6190, "United States"},
	{"Mount Whitney", 4421, "United States"},
	{"Mount Logan", 5959, "Canada"},
	{"Pico de Orizaba", 5636, "Mexico"},
	{"Pico da Neblina", 2995, "Brazil"},
	{"Aconcagua", 6961, "Argentina"},
	{"Huascaran", 6768, "Peru"},
	{"Mont Blanc", 4808, "France"},
	{"Zugspitze", 2962, "Germany"},
	{"Mulhacen", 3479, "Spain"},
	{"Gran Paradiso", 4061, "Italy"},
	{"Monte Rosa", 4634, "Switzerland"},
	{"Mount Catherine", 2629, "Egypt"},
	{"Chappal Waddi", 2419, "Nigeria"},
	{"Mount Kenya", 5199, "Kenya"},
	{"Mafadi", 3450, "South Africa"},
	{"Mount Everest", 8849, "China"},
	{"Kangchenjunga", 8586, "India"},
	{"Mount Fuji", 3776, "Japan"},
	{"Puncak Jaya", 4884, "Indonesia"},
	{"Fansipan", 3147, "Vietnam"},
	{"Mount Kosciuszko", 2228, "Australia"},
	{"Aoraki", 3724, "New Zealand"},
	{"Galdhopiggen", 2469, "Norway"},
	{"Ojos del Salado", 6893, "Chile"},
}

// Geo builds the fixed world-geography database.
func Geo() *store.DB {
	db := store.NewDB(GeoSchema())
	ld := newLoader(db)
	countryID := map[string]int64{}
	for i, c := range geoCountries {
		id := int64(i + 1)
		countryID[c.name] = id
		ld.add("countries",
			store.Int(id), store.Text(c.name), store.Text(c.continent),
			store.Float(c.area), store.Int(c.pop), store.Float(c.gdp))
	}
	for i, c := range geoCities {
		ld.add("cities",
			store.Int(int64(i+1)), store.Text(c.name), store.Int(countryID[c.country]),
			store.Int(c.pop), store.Bool(c.capital))
	}
	for i, r := range geoRivers {
		ld.add("rivers",
			store.Int(int64(i+1)), store.Text(r.name), store.Float(r.length),
			store.Int(countryID[r.country]))
	}
	for i, m := range geoMountains {
		ld.add("mountains",
			store.Int(int64(i+1)), store.Text(m.name), store.Float(m.height),
			store.Int(countryID[m.country]))
	}
	ld.flush()
	return db
}
